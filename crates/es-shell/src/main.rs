//! The `es` binary: an interactive shell / script runner on either
//! kernel backend.
//!
//! ```text
//! es [options] [script [args...]]
//!
//!   -c CMD            run CMD and exit
//!   --real            run on the real OS (std::fs / std::process)
//!   --sim             run on the simulated kernel (default)
//!   --naive-calls     disable proper tail calls (1993 behaviour)
//!   --stress-gc       collect on every allocation (debug mode)
//!   --dump-env        print the encoded environment and exit
//!   --limit KIND=N    arm a resource limit (repeatable); KIND is one
//!                     of depth, steps, heap, fds, output, time (ms)
//! ```
//!
//! With no script and no `-c`, starts the interactive loop — which is
//! `%interactive-loop` from Figure 3 of the paper, written in es and
//! replaceable from the command line.
//!
//! ```text
//! es serve [serve options]
//!
//!   --capacity N      pooled Machine slots (default 8)
//!   --high-water N    admission ceiling; above this, Open is shed
//!   --slice-steps N   charge ticks per scheduling slice
//!   --limit KIND=N    default per-command limits for every session
//! ```
//!
//! `serve` speaks the es-serve frame protocol on stdin/stdout: clients
//! send `open`/`line`/`close`/`drain` frames and receive
//! `opened`/`out`/`err`/`done`/`fault`/`shed`/... back. EOF on stdin
//! is treated as `drain`, so piping a frame script through `es serve`
//! terminates cleanly.

use es_core::governor::Kind;
use es_core::{Machine, Options};
use es_os::{Os, RealOs, SimOs};
use es_serve::{Frame, ProtoError, ServeConfig, Server};
use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::mpsc;

struct Args {
    command: Option<String>,
    script: Option<String>,
    script_args: Vec<String>,
    real: bool,
    naive_calls: bool,
    stress_gc: bool,
    dump_env: bool,
    limits: Vec<(Kind, u64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        command: None,
        script: None,
        script_args: Vec::new(),
        real: false,
        naive_calls: false,
        stress_gc: false,
        dump_env: false,
        limits: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "-c" => {
                out.command = Some(argv.next().ok_or("-c needs an argument")?);
            }
            "--real" => out.real = true,
            "--sim" => out.real = false,
            "--naive-calls" => out.naive_calls = true,
            "--stress-gc" => out.stress_gc = true,
            "--dump-env" => out.dump_env = true,
            "--limit" => out.limits.push(limit_spec(argv.next())?),
            "-h" | "--help" => {
                println!(
                    "usage: es [-c CMD] [--real|--sim] \
                     [--naive-calls] [--stress-gc] [--limit KIND=N] [script [args...]]"
                );
                std::process::exit(0);
            }
            other if out.script.is_none() => out.script = Some(other.to_string()),
            other => out.script_args.push(other.to_string()),
        }
    }
    Ok(out)
}

fn run_shell<O: Os + Clone>(os: O, args: Args) -> i32 {
    let opts = Options {
        tail_calls: !args.naive_calls,
    };
    let mut m = match Machine::with_options(os, opts) {
        Ok(m) => m,
        Err(_) => {
            eprintln!("es: failed to boot (initial.es)");
            return 125;
        }
    };
    m.heap.set_stress(args.stress_gc);
    for &(kind, value) in &args.limits {
        m.arm_limit(kind, value);
    }
    if args.dump_env {
        for (k, v) in m.export_environment().iter() {
            println!("{k}={v}");
        }
        return 0;
    }
    if let Some(cmd) = &args.command {
        return run_status(&mut m, cmd);
    }
    if let Some(script) = &args.script {
        let quoted_args: Vec<String> = args
            .script_args
            .iter()
            .map(|a| es_syntax::print::quote(a))
            .collect();
        let cmd = format!(". {} {}", script, quoted_args.join(" "));
        return run_status(&mut m, &cmd);
    }
    m.repl()
}

/// Runs `src` and returns the exit status the interactive loop would
/// give it: the truth of its value, or an `exit`'s own status, which
/// exits silently. An uncaught exception prints `es: ` and its message
/// on stderr and exits 1.
fn run_status<O: Os + Clone>(m: &mut Machine<O>, src: &str) -> i32 {
    let result = m.run_text(src);
    m.exit_status(result).unwrap_or_else(|msg| {
        eprintln!("es: {msg}");
        1
    })
}

/// Parses the argument of `--limit`, `KIND=N`, for the shell and for
/// `serve`.
fn limit_spec(spec: Option<String>) -> Result<(Kind, u64), String> {
    let spec = spec.ok_or("--limit needs a KIND=N argument")?;
    let (kind, value) = spec
        .split_once('=')
        .ok_or_else(|| format!("--limit {spec}: expected KIND=N"))?;
    let value: u64 = value
        .parse()
        .map_err(|_| format!("--limit {spec}: '{value}' is not a number"))?;
    let kind = Kind::parse(kind).ok_or_else(|| {
        format!(
            "--limit {spec}: unknown limit kind '{kind}' (expected {})",
            Kind::choices()
        )
    })?;
    Ok((kind, value))
}

fn parse_serve_args<I: Iterator<Item = String>>(mut argv: I) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::default();
    while let Some(arg) = argv.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            argv.next()
                .ok_or_else(|| format!("{name} needs an argument"))?
                .parse()
                .map_err(|_| format!("{name}: expected a number"))
        };
        match arg.as_str() {
            "--capacity" => cfg.capacity = num("--capacity")? as usize,
            "--high-water" => cfg.high_water = num("--high-water")? as usize,
            "--slice-steps" => cfg.slice_steps = num("--slice-steps")?,
            "--limit" => cfg.session_limits.push(limit_spec(argv.next())?),
            "-h" | "--help" => {
                println!(
                    "usage: es serve [--capacity N] [--high-water N] \
                     [--slice-steps N] [--limit KIND=N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("serve: unknown option {other}")),
        }
    }
    Ok(cfg)
}

/// The framed session server on stdio. A reader thread chunks stdin
/// into the channel; the main loop decodes frames, feeds the server,
/// pumps in-flight work between arrivals, and flushes every emitted
/// frame. EOF becomes `drain` so the process exits once live work is
/// finished or cancelled past the grace allowance.
fn run_serve(cfg: ServeConfig) -> i32 {
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    std::thread::Builder::new()
        .name("es-serve-stdin".into())
        .spawn(move || {
            let mut stdin = std::io::stdin().lock();
            let mut chunk = [0u8; 4096];
            loop {
                match stdin.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if tx.send(chunk[..n].to_vec()).is_err() {
                            break;
                        }
                    }
                }
            }
        })
        .expect("spawn stdin reader");

    // Writes frames to the client; `Some(saw_drained)` on success,
    // `None` when the client hung up.
    fn emit(stdout: &mut std::io::StdoutLock<'_>, frames: &[Frame]) -> Option<bool> {
        let mut wire = Vec::new();
        let mut saw_drained = false;
        for f in frames {
            saw_drained |= matches!(f, Frame::Drained { .. });
            f.encode_into(&mut wire);
        }
        stdout
            .write_all(&wire)
            .and_then(|_| stdout.flush())
            .ok()
            .map(|_| saw_drained)
    }

    let mut server = Server::new(cfg);
    let mut buf: Vec<u8> = Vec::new();
    let mut stdout = std::io::stdout().lock();
    let mut eof = false;
    let mut drain_sent = false;

    loop {
        // Ingest whatever the reader thread has queued (non-blocking;
        // the bottom of the loop blocks when there is nothing to do).
        loop {
            match rx.try_recv() {
                Ok(c) => buf.extend_from_slice(&c),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    eof = true;
                    break;
                }
            }
        }

        // Decode and feed complete frames.
        let mut fed = false;
        loop {
            match Frame::decode(&buf) {
                Ok((frame, used)) => {
                    buf.drain(..used);
                    fed = true;
                    let replies = server.feed(frame);
                    match emit(&mut stdout, &replies) {
                        Some(true) => return 0,
                        Some(false) => {}
                        None => return 0, // client hung up
                    }
                }
                Err(ProtoError::NeedMore) => break,
                Err(ProtoError::Bad(msg)) => {
                    eprintln!("es serve: bad frame: {msg}");
                    return 2;
                }
            }
        }

        let pumped = server.pump(512);
        match emit(&mut stdout, &pumped) {
            Some(true) | None => return 0,
            Some(false) => {}
        }
        if drain_sent && pumped.is_empty() {
            // Drained should have surfaced above; don't spin forever
            // if the server has nothing left to say.
            return 0;
        }

        // Nothing fed, nothing pumped: the server is quiescent. At
        // EOF that means the client is done talking and all queued
        // work has run — drain (cancelling anything past the grace
        // allowance) and exit; otherwise block until the client
        // speaks again.
        if pumped.is_empty() && !fed {
            if eof {
                if !drain_sent {
                    drain_sent = true;
                    match emit(&mut stdout, &server.feed(Frame::Drain { grace: 1024 })) {
                        Some(true) | None => return 0,
                        Some(false) => {}
                    }
                }
            } else {
                match rx.recv() {
                    Ok(c) => buf.extend_from_slice(&c),
                    Err(_) => eof = true,
                }
            }
        }
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("serve") {
        let cfg = match parse_serve_args(std::env::args().skip(2)) {
            Ok(c) => c,
            Err(msg) => {
                eprintln!("es: {msg}");
                return ExitCode::from(2);
            }
        };
        return ExitCode::from(run_serve(cfg).clamp(0, 255) as u8);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("es: {msg}");
            return ExitCode::from(2);
        }
    };
    // The evaluator can nest deeply (especially with --naive-calls);
    // run on a thread with a generous stack, like the original's
    // reliance on a large C stack.
    let child = std::thread::Builder::new()
        .name("es-shell".into())
        .stack_size(256 << 20)
        .spawn(move || {
            if args.real {
                run_shell(RealOs::new(), args)
            } else {
                let mut os = SimOs::new();
                os.set_interactive(true);
                // Seed the simulated kernel with the real environment
                // so PATH-ish state imports sensibly.
                os.set_initial_env(
                    [
                        ("HOME".to_string(), "/home/user".to_string()),
                        ("PATH".to_string(), "/bin:/usr/bin".to_string()),
                    ]
                    .to_vec(),
                );
                run_shell(os, args)
            }
        })
        .expect("spawn shell thread");
    let status = child.join().unwrap_or(126);
    ExitCode::from(status.clamp(0, 255) as u8)
}
