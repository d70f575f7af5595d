# Convenience targets for the es reproduction. `just` is not installed
# in the build image, so plain make it is.

.PHONY: all build test conform fuzz conform-check soak soak-limits serve-soak serve-soak-check lint bench-check counts counts-check loc bench bench-eval bench-serve bench-front-end clean

all: build test conform-check serve-soak-check lint bench-check counts-check

build:
	cargo build --release

# Tier-1 verification (see ROADMAP.md).
test:
	cargo build --release && cargo test -q

# E12 — differential conformance: every scenario runs on both kernels
# (SimOs and RealOs); traces must agree on every oracle field or carry
# a divergence-ledger entry. Zero silent mismatches tolerated.
conform:
	cargo test -p es-conform --test conform -q

# E12 — grammar-aware script fuzz: seeded sessions against SimOs
# (panic/leak/replay invariants, fault weather on a third of seeds) and
# differentially against RealOs (fault-free subset, zero divergences).
FUZZ_SEEDS ?= 256
fuzz:
	FUZZ_SEEDS=$(FUZZ_SEEDS) cargo test -p es-conform --test fuzz -q

# The deterministic keys of BENCH_conform.json (scenarios, divergences,
# seeds, fault injections) that the conform and fuzz tests rewrite must
# match the checked-in file. A change that moves one commits the
# regenerated file and says why in CHANGES.md.
conform-check: conform fuzz
	git diff --exit-code BENCH_conform.json

# E10 — fault-injection soak: 256 seeded fault plans against a scripted
# session, asserting no panics, no descriptor leaks, and byte-identical
# replay per seed; then the zero-fault overhead bench.
soak:
	cargo test -p es-core -q soak_fault_plans -- --nocapture
	cargo bench -p es-bench --bench e10_fault_overhead

# E11 — governor soak: the same 256 seeds with a tight step budget and
# an active fault plan armed together (limit breaches, injected faults,
# and catch handlers interleaving), plus the zero-limits overhead bench.
soak-limits:
	cargo test -p es-core -q soak_limits -- --nocapture
	cargo bench -p es-bench --bench e11_governor

# E14 — serving soak: seeded 10k-session runs through the session
# server with fault weather, tight budgets, injected panics, and
# admission churn; asserts zero escaped panics, zero reset-oracle
# violations, shedding engaged, and an identical event log (length and
# digest of every frame) on replay per seed; prints one `seed len
# digest` line per seed. The `soak` profile is release with debug
# assertions on, so every cache oracle runs too.
SERVE_SESSIONS ?= 10000
SERVE_SEEDS ?= 2
serve-soak:
	SERVE_SESSIONS=$(SERVE_SESSIONS) SERVE_SEEDS=$(SERVE_SEEDS) \
		cargo test -p es-serve --profile soak --test soak -q -- --nocapture

# Fails if the soak fails, or if the `seed len digest` lines it prints
# differ from the checked-in BENCH_serve_soak.txt (plain text, so that
# `diff` can check it). A change that alters served frames on purpose
# regenerates the file from those lines and says why in CHANGES.md.
serve-soak-check:
	@out=$$($(MAKE) --no-print-directory -s serve-soak 2>&1) || { echo "$$out"; exit 1; }; \
		echo "$$out" | grep -oE '0x[0-9a-f]+ [0-9]+ [0-9a-f]{16}' | diff -u BENCH_serve_soak.txt -

# The whole workspace must be rustfmt-formatted and clippy-clean, and
# its docs must build with no warning (a doc link to a deleted or
# private item fails here).
lint:
	cargo fmt --all -- --check
	cargo clippy --workspace --all-targets -- -D warnings
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# perfbench is its own Cargo package (path deps on the crates here), so
# the workspace build does not compile it. Build it and run its
# generator and order-statistic tests, so an API change it depends on
# fails here rather than in a benchmark run.
bench-check:
	cargo test --manifest-path perfbench/Cargo.toml

# The deterministic per-op counts of traced perfbench runs (seed 5) on
# both workloads. They repeat exactly from run to run, so one run shows
# whether a change moved a count: compare the rows with its parent's.
COUNT_ROWS = governor.steps_per_op|gc.allocs_per_op|os.syscalls_per_op|env.bytes_per_launch|serve.slices_per_cmd|serve.log_bytes_per_session
counts:
	@for w in script serve; do \
		out=$$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
			--workload $$w --seed 5 --seconds 5 --trace 1 2>/dev/null) || exit 1; \
		echo "== $$w"; \
		echo "$$out" | grep -E '^($(COUNT_ROWS)) '; \
	done

# Fails if any count differs from the checked-in BENCH_counts.txt (the
# exact output of `make counts`, plain text so that `diff` can check
# it). A change that moves a count regenerates the file with
# `make -s counts > BENCH_counts.txt` and says why in CHANGES.md.
counts-check:
	@$(MAKE) --no-print-directory -s counts | diff -u BENCH_counts.txt -

# Code lines per crate `src/` (the root package's as `es`): no blank
# lines, no `//` comment lines, no tests.rs, tests_prop.rs or
# real_tests.rs, and no in-file `#[cfg(test)] mod ... {` block. Braces
# are counted per line, so a brace inside a string or char literal in
# a test block would end the skip early. CHANGES.md takes each PR's net
# lines from the difference of two runs.
loc:
	@for d in src crates/*/src; do \
		name=$$(basename $$(dirname $$d)); [ "$$d" = src ] && name=es; \
		n=$$(grep -rl --include='*.rs' --exclude=tests.rs --exclude=tests_prop.rs \
			--exclude=real_tests.rs '' $$d | xargs awk ' \
			FNR == 1 { skip = 0; attr = 0 } \
			skip { depth += gsub(/{/, "{") - gsub(/}/, "}"); if (depth <= 0) skip = 0; next } \
			attr && /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/ { \
				n--; attr = 0; depth = gsub(/{/, "{") - gsub(/}/, "}"); skip = depth > 0; next } \
			{ attr = /^[ \t]*#\[cfg\(test\)\]/ } \
			/^[ \t]*$$/ || /^[ \t]*\/\// { next } \
			{ n++ } \
			END { print n + 0 }'); \
		printf '%-12s %6d\n' $$name $$n; total=$$((total + n)); \
	done; printf '%-12s %6d\n' total $$total

bench:
	cargo bench -p es-bench

# E7 — evaluator bench: hook-dispatch ablation.
bench-eval:
	cargo bench -p es-bench --bench e7_hook_ablation

# E14 — serving benches: cold-boot vs recycle slot turnover,
# sessions/sec, and p50/p99 per-command latency through the server at
# 1k and 10k sessions; writes BENCH_serve.json at the repo root.
bench-serve:
	cargo bench -p es-bench --bench e14_serve

# E17 — the front end alone: parse, lower and drop per line and per
# byte (with mallocs per line) on initial.es and on lines shaped like
# perfbench's script and serve pools.
bench-front-end:
	cargo bench -p es-bench --bench e17_front_end

clean:
	cargo clean
