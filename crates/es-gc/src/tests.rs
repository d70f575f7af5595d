//! Unit and property tests for the copying collector.

use crate::{Heap, Obj, Ref};
use proptest::prelude::*;

#[test]
fn alloc_and_read_str() {
    let mut heap: Heap<u32> = Heap::new();
    let r = heap.alloc_str("hello");
    assert_eq!(heap.str_value(r), "hello");
    assert_eq!(heap.stats().allocated, 1);
}

#[test]
fn list_survives_collection() {
    let mut heap: Heap<u32> = Heap::with_threshold(8);
    let a = heap.alloc_str("a");
    let slot_a = heap.push_root(a);
    let cell = heap.alloc_pair(heap.root(slot_a), Ref::NIL);
    let slot = heap.push_root(cell);
    heap.collect();
    let cell = heap.root(slot);
    let head = heap.pair_head(cell);
    assert_eq!(heap.str_value(head), "a");
    assert!(heap.pair_tail(cell).is_nil());
}

#[test]
#[should_panic(expected = "stale gc ref")]
fn stale_ref_panics() {
    let mut heap: Heap<u32> = Heap::new();
    let r = heap.alloc_str("x");
    heap.collect();
    let _ = heap.get(r); // not rooted: must be caught, like the paper's mprotect trap
}

#[test]
#[should_panic(expected = "deref of nil")]
fn nil_deref_panics() {
    let heap: Heap<u32> = Heap::new();
    let _ = heap.get(Ref::NIL);
}

#[test]
fn unreachable_objects_are_dropped() {
    let mut heap: Heap<u32> = Heap::with_threshold(1 << 20);
    for i in 0..100 {
        heap.alloc_str(&format!("garbage{i}"));
    }
    let keep = heap.alloc_str("keep");
    let slot = heap.push_root(keep);
    heap.collect();
    assert_eq!(heap.len(), 1);
    assert_eq!(heap.str_value(heap.root(slot)), "keep");
    assert_eq!(heap.stats().live_after_last, 1);
}

#[test]
fn sharing_is_preserved() {
    let mut heap: Heap<u32> = Heap::new();
    let shared = heap.alloc_str("shared");
    let s_slot = heap.push_root(shared);
    let p1 = heap.alloc_pair(heap.root(s_slot), Ref::NIL);
    let p1_slot = heap.push_root(p1);
    let p2 = heap.alloc_pair(heap.root(s_slot), Ref::NIL);
    let p2_slot = heap.push_root(p2);
    heap.collect();
    // Both pairs must point at the *same* copied string.
    let h1 = heap.pair_head(heap.root(p1_slot));
    let h2 = heap.pair_head(heap.root(p2_slot));
    assert_eq!(h1, h2);
    assert_eq!(heap.len(), 3, "shared string copied exactly once");
}

#[test]
fn cycles_survive_collection() {
    // A binding whose value list contains a closure that captures the
    // binding itself: the paper's "true recursive structures".
    let mut heap: Heap<u32> = Heap::new();
    let binding = heap.alloc_binding("self", Ref::NIL, Ref::NIL);
    let b_slot = heap.push_root(binding);
    let clo = heap.alloc_closure(42, heap.root(b_slot));
    let c_slot = heap.push_root(clo);
    let cell = heap.alloc_pair(heap.root(c_slot), Ref::NIL);
    let cell_slot = heap.push_root(cell);
    heap.set_binding_value(heap.root(b_slot), heap.root(cell_slot));
    heap.collect();
    heap.collect(); // twice: copying a cycle twice is the classic failure mode
    let b = heap.root(b_slot);
    let (name, value, _) = heap.binding_parts(b);
    assert_eq!(name, "self");
    let clo2 = heap.pair_head(value);
    assert_eq!(
        heap.closure_bindings(clo2),
        b,
        "cycle closes back on itself"
    );
    assert_eq!(*heap.closure_code(clo2), 42);
}

#[test]
fn stress_mode_collects_every_alloc() {
    let mut heap: Heap<u32> = Heap::with_threshold(1 << 20);
    heap.set_stress(true);
    let a = heap.alloc_str("a");
    let slot = heap.push_root(a);
    for i in 0..50 {
        let s = heap.alloc_string(format!("x{i}"));
        let tmp = heap.push_root(s);
        let _p = heap.alloc_pair(heap.root(tmp), Ref::NIL);
        heap.truncate_roots(slot.index() + 1);
    }
    assert!(heap.stats().collections >= 100, "one per allocation");
    assert_eq!(heap.str_value(heap.root(slot)), "a");
}

#[test]
fn threshold_grows_when_live_set_is_large() {
    let mut heap: Heap<u32> = Heap::with_threshold(8);
    // Keep everything live so the collection cannot reclaim anything.
    let mut tail = Ref::NIL;
    let slot = heap.push_root(tail);
    for i in 0..64 {
        let s = heap.alloc_string(format!("k{i}"));
        let s_slot = heap.push_root(s);
        tail = heap.root(slot);
        let p = heap.alloc_pair(heap.root(s_slot), tail);
        heap.set_root(slot, p);
        heap.truncate_roots(s_slot.index());
    }
    assert!(
        heap.stats().grows > 0,
        "space must grow under live pressure"
    );
    // The whole list is intact.
    let mut n = 0;
    let mut cur = heap.root(slot);
    while !cur.is_nil() {
        n += 1;
        cur = heap.pair_tail(cur);
    }
    assert_eq!(n, 64);
}

#[test]
fn binding_mutation_is_visible_through_sharing() {
    // Two closures capture the same frame; assignment through one is
    // seen by the other (the paper's lexical-scope sharing semantics).
    let mut heap: Heap<u32> = Heap::new();
    let frame = heap.alloc_binding("x", Ref::NIL, Ref::NIL);
    let f_slot = heap.push_root(frame);
    let c1 = heap.alloc_closure(1, heap.root(f_slot));
    let c1_slot = heap.push_root(c1);
    let c2 = heap.alloc_closure(2, heap.root(f_slot));
    let c2_slot = heap.push_root(c2);
    let val = heap.alloc_str("assigned");
    let v_slot = heap.push_root(val);
    let cell = heap.alloc_pair(heap.root(v_slot), Ref::NIL);
    heap.set_binding_value(heap.closure_bindings(heap.root(c1_slot)), cell);
    heap.collect();
    let b2 = heap.closure_bindings(heap.root(c2_slot));
    let (_, value, _) = heap.binding_parts(b2);
    assert_eq!(heap.str_value(heap.pair_head(value)), "assigned");
}

#[test]
fn clone_is_independent_fork_image() {
    let mut heap: Heap<u32> = Heap::new();
    let b = heap.alloc_binding("x", Ref::NIL, Ref::NIL);
    let slot = heap.push_root(b);
    let mut child = heap.clone();
    // Mutate the child; parent must be unaffected (fork semantics).
    let v = child.alloc_str("child-only");
    let v_slot = child.push_root(v);
    let cell = child.alloc_pair(child.root(v_slot), Ref::NIL);
    child.set_binding_value(child.root(slot), cell);
    let (_, parent_val, _) = heap.binding_parts(heap.root(slot));
    assert!(parent_val.is_nil(), "parent not affected by child mutation");
}

#[test]
fn pause_fraction_math() {
    use std::time::Duration;
    let mut s = crate::GcStats {
        pause_total: Duration::from_millis(40),
        ..Default::default()
    };
    assert!((s.pause_fraction(Duration::from_secs(1)) - 0.04).abs() < 1e-12);
    assert_eq!(s.pause_fraction(Duration::ZERO), 0.0);
    s.collections = 4;
    s.copied = 100;
    s.allocated = 1000;
    assert_eq!(s.avg_copied(), 25.0);
    assert!((s.survival_rate() - 0.1).abs() < 1e-12);
}

// ---------------------------------------------------------------------------
// Property tests: build random list-of-strings graphs, collect at random
// points, and check that the reachable contents are exactly preserved.
// ---------------------------------------------------------------------------

/// Reads a GC list of string terms back into a Vec<String>.
fn read_list(heap: &Heap<u32>, mut r: Ref) -> Vec<String> {
    let mut out = Vec::new();
    while !r.is_nil() {
        let head = heap.pair_head(r);
        match heap.get(head) {
            Obj::Str(_) => out.push(heap.str_value(head).to_string()),
            Obj::Closure(..) => out.push(format!("<closure:{}>", heap.closure_code(head))),
            _ => panic!("list head must be Str or Closure"),
        }
        r = heap.pair_tail(r);
    }
    out
}

/// Builds a GC list from strings, collecting along the way if `stress`.
fn build_list(heap: &mut Heap<u32>, items: &[String]) -> crate::RootSlot {
    let slot = heap.push_root(Ref::NIL);
    for item in items.iter().rev() {
        let s = heap.alloc_string(item.clone());
        let s_slot = heap.push_root(s);
        let tail = heap.root(slot);
        let p = heap.alloc_pair(heap.root(s_slot), tail);
        heap.set_root(slot, p);
        heap.truncate_roots(s_slot.index());
    }
    slot
}

/// Builds a binding chain named by `names`, first name outermost.
fn build_bindings(heap: &mut Heap<u32>, names: &[String]) -> crate::RootSlot {
    let slot = heap.push_root(Ref::NIL);
    for name in names.iter().rev() {
        let b = heap.alloc_binding(name, Ref::NIL, heap.root(slot));
        heap.set_root(slot, b);
    }
    slot
}

/// Reads a binding chain's names back.
fn read_bindings(heap: &Heap<u32>, mut r: Ref) -> Vec<String> {
    let mut out = Vec::new();
    while !r.is_nil() {
        let (name, _, next) = heap.binding_parts(r);
        out.push(name.to_string());
        r = next;
    }
    out
}

/// Any text a string or a binding name can hold: mostly short (empty
/// included) over ASCII and one-, two-, three- and four-byte UTF-8,
/// sometimes over 4 KiB, so arena offsets cross multi-byte boundaries
/// and large spans.
struct AnyText;

impl Strategy for AnyText {
    type Value = String;

    fn generate(&self, rng: &mut proptest::Rng) -> String {
        let len = match rng.below(8) {
            0 => 4097 + rng.below(512) as usize,
            _ => rng.below(13) as usize,
        };
        (0..len)
            .map(|_| {
                let (lo, hi): (u64, u64) = [
                    (0, 0x80),
                    (0x80, 0x800),
                    (0x800, 0x1_0000),
                    (0x1_0000, 0x11_0000),
                ][rng.below(4) as usize];
                let c = (lo + rng.below(hi - lo)) as u32;
                char::from_u32(c).unwrap_or('\u{fffd}') // surrogates are not chars
            })
            .collect()
    }
}

proptest! {
    #[test]
    fn prop_lists_survive_any_collection_schedule(
        items in proptest::collection::vec(AnyText, 0..60),
        threshold in 8usize..64,
        stress in any::<bool>(),
        extra_collects in 0usize..4,
    ) {
        let mut heap: Heap<u32> = Heap::with_threshold(threshold);
        heap.set_stress(stress);
        let slot = build_list(&mut heap, &items);
        let names = build_bindings(&mut heap, &items);
        for _ in 0..extra_collects {
            heap.collect();
        }
        prop_assert_eq!(read_list(&heap, heap.root(slot)), items.clone());
        prop_assert_eq!(read_bindings(&heap, heap.root(names)), items);
    }

    #[test]
    fn prop_clones_keep_their_strings(
        items in proptest::collection::vec(AnyText, 0..40),
        garbage in proptest::collection::vec(AnyText, 0..40),
        collect_parent in any::<bool>(),
    ) {
        // Fork, session recycle and the boot image all clone a heap and
        // go on using one side: whatever the other side collects,
        // allocates or rebinds, this side's text must read back as it was.
        let mut heap: Heap<u32> = Heap::with_threshold(16);
        let list = build_list(&mut heap, &items);
        let names = build_bindings(&mut heap, &items);
        let mut other = heap.clone();
        let (busy, kept) = if collect_parent {
            (&mut heap, &other)
        } else {
            (&mut other, &heap)
        };
        for g in &garbage {
            busy.alloc_str(g);
        }
        busy.collect();
        let fresh = build_list(busy, &garbage);
        busy.set_root(list, busy.root(fresh));
        busy.collect();
        prop_assert_eq!(read_list(kept, kept.root(list)), items.clone());
        prop_assert_eq!(read_bindings(kept, kept.root(names)), items.clone());
        prop_assert_eq!(read_list(busy, busy.root(list)), garbage);
        prop_assert_eq!(read_bindings(busy, busy.root(names)), items);
    }

    #[test]
    fn prop_garbage_is_reclaimed(
        live in proptest::collection::vec(AnyText, 1..20),
        garbage in 1usize..200,
    ) {
        let mut heap: Heap<u32> = Heap::with_threshold(1 << 20);
        let slot = build_list(&mut heap, &live);
        for i in 0..garbage {
            heap.alloc_string(format!("g{i}"));
        }
        heap.collect();
        // Live set: one pair + one str per element.
        prop_assert_eq!(heap.len(), live.len() * 2);
        prop_assert_eq!(read_list(&heap, heap.root(slot)), live);
    }

    #[test]
    fn prop_interleaved_mutation_and_collection(
        ops in proptest::collection::vec((any::<bool>(), AnyText), 1..50),
        name in AnyText,
    ) {
        // Model: a single binding holding a list; ops either push a
        // value onto the list (via mutation) or force a collection.
        let mut heap: Heap<u32> = Heap::with_threshold(16);
        let b = heap.alloc_binding(&name, Ref::NIL, Ref::NIL);
        let slot = heap.push_root(b);
        let mut model: Vec<String> = Vec::new();
        for (collect, word) in &ops {
            if *collect {
                heap.collect();
            } else {
                let s = heap.alloc_string(word.clone());
                let s_slot = heap.push_root(s);
                let (_, old, _) = heap.binding_parts(heap.root(slot));
                let cell = heap.alloc_pair(heap.root(s_slot), old);
                heap.set_binding_value(heap.root(slot), cell);
                heap.truncate_roots(s_slot.index());
                model.insert(0, word.clone());
            }
        }
        let (got_name, value, _) = heap.binding_parts(heap.root(slot));
        prop_assert_eq!(got_name, name.as_str());
        prop_assert_eq!(read_list(&heap, value), model);
    }
}

#[test]
fn persistent_roots_survive_and_free() {
    let mut heap: Heap<u32> = Heap::new();
    let a = heap.alloc_str("global-a");
    let slot_a = heap.alloc_perm(a);
    let b = heap.alloc_str("global-b");
    let slot_b = heap.alloc_perm(b);
    heap.collect();
    assert_eq!(heap.str_value(heap.perm(slot_a)), "global-a");
    assert_eq!(heap.str_value(heap.perm(slot_b)), "global-b");
    heap.free_perm(slot_a);
    heap.collect();
    assert_eq!(heap.len(), 1, "freed global was reclaimed");
    // Freed slots are reused.
    let c = heap.alloc_str("global-c");
    let slot_c = heap.alloc_perm(c);
    assert_eq!(slot_c, slot_a);
    assert_eq!(heap.str_value(heap.perm(slot_c)), "global-c");
}

#[test]
fn perm_and_stack_roots_share_objects() {
    let mut heap: Heap<u32> = Heap::new();
    let s = heap.alloc_str("shared");
    let perm = heap.alloc_perm(s);
    let stack = heap.push_root(s);
    heap.collect();
    assert_eq!(heap.perm(perm), heap.root(stack), "copied exactly once");
    assert_eq!(heap.len(), 1);
}

// ----- the boot space ---------------------------------------------------------

/// A heap frozen with a list `["b0", "b1", "b2"]` in perm slot 0 and a
/// binding `n = ["zero"]` captured by closure 7 in perm slot 1.
fn frozen_heap() -> (Heap<u32>, crate::PermSlot, crate::PermSlot) {
    let mut heap: Heap<u32> = Heap::with_threshold(64);
    let items: Vec<String> = (0..3).map(|i| format!("b{i}")).collect();
    let list = build_list(&mut heap, &items);
    let list = heap.alloc_perm(heap.root(list));
    let zero = heap.alloc_str("zero");
    let value = heap.alloc_pair(zero, Ref::NIL);
    let binding = heap.alloc_binding("n", value, Ref::NIL);
    let closure = heap.alloc_closure(7, binding);
    let closure = heap.alloc_perm(closure);
    heap.truncate_roots(0);
    for i in 0..20 {
        heap.alloc_string(format!("garbage-{i}"));
    }
    heap.freeze();
    (heap, list, closure)
}

#[test]
fn freeze_moves_the_live_objects_into_the_boot_space() {
    let (heap, list, closure) = frozen_heap();
    // 3 strings + 3 cells, and a string, a cell, a binding, a closure.
    assert_eq!(heap.boot_len(), 10);
    assert_eq!(heap.len(), heap.boot_len());
    assert!(heap.perm(list).is_boot() && heap.perm(closure).is_boot());
    assert_eq!(read_list(&heap, heap.perm(list)), ["b0", "b1", "b2"]);
    assert!(heap.boot_space_intact());
}

#[test]
fn boot_refs_stay_valid_across_collections() {
    for stress in [false, true] {
        let (mut heap, list, _) = frozen_heap();
        heap.set_stress(stress);
        let head = heap.pair_head(heap.perm(list));
        for i in 0..200 {
            let s = heap.alloc_string(format!("young-{i}"));
            heap.alloc_pair(s, head);
        }
        heap.collect();
        // Neither the perm slot nor the ref read before the collections
        // moved: a boot ref is never staled.
        assert_eq!(heap.str_value(head), "b0");
        assert_eq!(heap.pair_head(heap.perm(list)), head);
        assert_eq!(read_list(&heap, heap.perm(list)), ["b0", "b1", "b2"]);
        assert!(heap.boot_space_intact());
    }
}

#[test]
#[should_panic(expected = "stale gc ref")]
fn stale_young_ref_panics_in_a_frozen_heap() {
    let (mut heap, _, _) = frozen_heap();
    let r = heap.alloc_str("young");
    heap.collect();
    let _ = heap.get(r);
}

#[test]
#[should_panic(expected = "stale gc ref")]
fn a_ref_from_before_the_freeze_is_stale() {
    let mut heap: Heap<u32> = Heap::new();
    let r = heap.alloc_str("x");
    heap.push_root(r);
    heap.freeze();
    let _ = heap.get(r);
}

#[test]
fn overlay_value_survives_a_collection() {
    let (mut heap, _, closure) = frozen_heap();
    let image = heap.clone();
    let binding = heap.closure_bindings(heap.perm(closure));
    assert!(binding.is_boot());
    let one = heap.alloc_str("one");
    let value = heap.alloc_pair(one, Ref::NIL);
    heap.set_binding_value(binding, value);
    for i in 0..200 {
        heap.alloc_string(format!("garbage-{i}"));
    }
    heap.collect();
    let (name, value, next) = heap.binding_parts(binding);
    assert_eq!((name, next), ("n", Ref::NIL));
    assert!(!value.is_boot(), "the new value is young");
    assert_eq!(read_list(&heap, value), ["one"]);
    // The boot space itself was not written.
    assert!(heap.boot_space_intact());
    // Restored from the frozen image, the heap forgets the assignment.
    heap.clone_from(&image);
    assert_eq!(heap.len(), heap.boot_len());
    assert_eq!(read_list(&heap, heap.binding_parts(binding).1), ["zero"]);
}

#[test]
fn collections_after_a_freeze_never_copy_a_boot_object() {
    let (mut heap, list, _) = frozen_heap();
    let copied = heap.stats().copied;
    heap.collect();
    assert_eq!(heap.stats().copied, copied, "nothing young is live");
    let s = heap.alloc_str("young");
    let cell = heap.alloc_pair(s, heap.perm(list));
    heap.push_root(cell);
    heap.set_stress(true);
    heap.alloc_str("garbage");
    heap.collect();
    // Every collection copied only the two young objects.
    let collections = heap.stats().collections - 1;
    assert_eq!(heap.stats().copied - copied, 2 * collections);
    assert_eq!(heap.stats().live_after_last, 2);
    assert_eq!(heap.len(), heap.boot_len() + 2);
}

#[test]
#[should_panic(expected = "set_pair_tail on a boot cell")]
fn boot_cells_are_immutable() {
    let (mut heap, list, _) = frozen_heap();
    heap.set_pair_tail(heap.perm(list), Ref::NIL);
}

// ----- the code table and the spare -----------------------------------------

/// A list of closures whose codes are `0..n`, in a new perm slot, with
/// a dead closure allocated before each live one.
fn closure_list(heap: &mut Heap<u32>, n: u32) -> crate::PermSlot {
    let list = heap.alloc_perm(Ref::NIL);
    for i in (0..n).rev() {
        heap.alloc_closure(1000 + i, Ref::NIL);
        let c = heap.alloc_closure(i, Ref::NIL);
        let p = heap.alloc_pair(c, heap.perm(list));
        heap.set_perm(list, p);
    }
    list
}

/// What [`read_list`] reads from a `closure_list` of `n`.
fn codes(n: u32) -> Vec<String> {
    (0..n).map(|i| format!("<closure:{i}>")).collect()
}

#[test]
fn closure_code_follows_its_closure() {
    for stress in [false, true] {
        let mut heap: Heap<u32> = Heap::with_threshold(16);
        heap.set_stress(stress);
        let list = closure_list(&mut heap, 40);
        heap.collect();
        assert_eq!(read_list(&heap, heap.perm(list)), codes(40));
        // A fork reads the same codes, and each side's collections
        // leave the other's table alone.
        let mut fork = heap.clone();
        closure_list(&mut fork, 3);
        fork.collect();
        heap.collect();
        assert_eq!(read_list(&fork, fork.perm(list)), codes(40));
        assert_eq!(read_list(&heap, heap.perm(list)), codes(40));
        // A heap restored from the fork keeps its own spare and reads
        // the fork's codes through every later collection.
        let mut restored: Heap<u32> = Heap::with_threshold(16);
        closure_list(&mut restored, 5);
        restored.collect();
        restored.clone_from(&fork);
        assert_eq!(read_list(&restored, restored.perm(list)), codes(40));
        restored.collect();
        restored.collect();
        assert_eq!(read_list(&restored, restored.perm(list)), codes(40));
        // Frozen, the codes sit in the boot space's table.
        heap.freeze();
        assert!(heap.perm(list).is_boot());
        assert_eq!(read_list(&heap, heap.perm(list)), codes(40));
    }
}

#[test]
fn a_boot_closures_code_reads_after_many_collections() {
    let (mut heap, _, closure) = frozen_heap();
    let boot = heap.perm(closure);
    let young = heap.alloc_closure(8, heap.closure_bindings(boot));
    let young = heap.push_root(young);
    for i in 0..100 {
        heap.alloc_closure(100 + i, Ref::NIL);
        heap.collect();
    }
    assert_eq!(*heap.closure_code(boot), 7);
    assert_eq!(*heap.closure_code(heap.root(young)), 8);
    assert_eq!(
        heap.closure_bindings(heap.root(young)),
        heap.closure_bindings(boot)
    );
    assert!(heap.boot_space_intact());
}

#[test]
#[should_panic(expected = "stale gc ref")]
fn a_stale_closure_ref_panics_after_its_space_is_reused() {
    let mut heap: Heap<u32> = Heap::new();
    let stale = heap.alloc_closure(1, Ref::NIL);
    heap.collect(); // `stale`'s space becomes the spare ...
    let live = heap.alloc_closure(2, Ref::NIL);
    let live = heap.push_root(live);
    heap.collect(); // ... and then the to-space, where `live` takes its slot.
    assert_eq!(*heap.closure_code(heap.root(live)), 2);
    let _ = heap.closure_code(stale);
}
