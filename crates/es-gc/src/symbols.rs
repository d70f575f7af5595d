//! The symbol table: every name a binding carries, interned once.
//!
//! A name is stored once, in a text arena, and found again through an
//! open-addressing index over that arena. Binding frames, and whatever
//! the interpreter keys by name, hold the name's [`Sym`], so telling two
//! names apart is one integer compare.
//!
//! The table has two parts, like the heap's spaces: the names interned
//! before [`crate::Heap::freeze`], frozen and shared by `Rc` with the
//! heap's clones, and the names interned since. `clone_from` from a
//! frozen image drops the young names in the buffers the table already
//! has: one store per dropped name, and no malloc.

use std::rc::Rc;

/// An interned name: an index into a heap's symbol table. Two symbols
/// of one table are equal exactly when their names are.
///
/// A symbol means something only to the table that made it and to
/// that table's clones (the interpreter's forks and recycled slots); a
/// young symbol means nothing after a `clone_from` that dropped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The symbol whose [`Sym::raw`] is `raw`: how a symbol kept
    /// outside the heap (in a syntax tree) comes back.
    pub const fn from_raw(raw: u32) -> Sym {
        Sym(raw)
    }

    /// The symbol's index in its table.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The symbol's index, for a table indexed by symbol.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A hash of the bytes of `prefix` followed by `name`, so a prefixed
/// name hashes as its concatenation would without being built. The
/// bytes are gathered eight at a time into a word, and each word is
/// mixed in with one multiply (as in rustc's FxHash); the final word
/// and the length are folded so that the index's low bits depend on
/// every byte.
fn hash(prefix: &str, name: &str) -> usize {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let (mut h, mut word, mut shift) = (0u64, 0u64, 0u32);
    for part in [prefix, name] {
        for &b in part.as_bytes() {
            word |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                h = (h.rotate_left(5) ^ word).wrapping_mul(K);
                (word, shift) = (0, 0);
            }
        }
    }
    let h = (h.rotate_left(5) ^ word ^ (prefix.len() + name.len()) as u64).wrapping_mul(K);
    (h ^ h >> 29) as usize
}

/// True if `s` is `prefix` followed by `name`. Compared byte by byte:
/// names are short, and a call into the C library's `memcmp` for each
/// probe cost more than the comparison itself.
fn spells(s: &[u8], prefix: &str, name: &str) -> bool {
    let (p, n) = (prefix.as_bytes(), name.as_bytes());
    s.len() == p.len() + n.len()
        && s.iter().zip(p).all(|(a, b)| a == b)
        && s[p.len()..].iter().zip(n).all(|(a, b)| a == b)
}

/// The names of one part of the table, numbered from 0 in the order
/// they were interned.
#[derive(Debug, Default, Clone)]
struct Part {
    /// Every name's bytes, one after another.
    text: String,
    /// Where each name ends in `text`; it starts where the one before
    /// it ends.
    ends: Vec<u32>,
    /// A linear-probing index: 0 is an empty slot, `k + 1` is name `k`.
    /// Its length is 0 or a power of two, at least twice the names.
    slots: Vec<u32>,
    /// The slot of each name.
    at: Vec<u32>,
}

impl Part {
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Where name `k` lies in `text`.
    fn range(&self, k: usize) -> std::ops::Range<usize> {
        let start = if k == 0 { 0 } else { self.ends[k - 1] as usize };
        start..self.ends[k] as usize
    }

    fn name(&self, k: usize) -> &str {
        &self.text[self.range(k)]
    }

    /// True if name `k` is `prefix` followed by `name`.
    fn is(&self, k: usize, prefix: &str, name: &str) -> bool {
        spells(&self.text.as_bytes()[self.range(k)], prefix, name)
    }

    /// The number of `prefix` followed by `name`, whose [`hash`] is `h`.
    fn find(&self, h: usize, prefix: &str, name: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = h & mask;
        loop {
            match self.slots[i] {
                0 => return None,
                k if self.is(k as usize - 1, prefix, name) => return Some(k - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The first empty slot on the probe sequence of hash `h`.
    fn free_slot(&self, h: usize) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = h & mask;
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        i
    }

    /// Appends `prefix` followed by `name`, which the part lacks, and
    /// returns its number.
    ///
    /// # Panics
    ///
    /// Panics if the arena would pass `u32::MAX` bytes.
    fn push(&mut self, h: usize, prefix: &str, name: &str) -> u32 {
        let end = self.text.len() + prefix.len() + name.len();
        let end = u32::try_from(end).expect("symbol text passes u32::MAX bytes");
        self.text.push_str(prefix);
        self.text.push_str(name);
        self.ends.push(end);
        if self.slots.len() < 2 * self.ends.len() {
            self.slots.clear();
            self.slots
                .resize((2 * self.ends.len()).next_power_of_two().max(16), 0);
            self.at.clear();
            for j in 0..self.ends.len() {
                self.insert(hash("", self.name(j)));
            }
        } else {
            self.insert(h);
        }
        self.ends.len() as u32 - 1
    }

    /// Indexes the next name, whose hash is `h`.
    fn insert(&mut self, h: usize) {
        let i = self.free_slot(h);
        self.at.push(i as u32);
        self.slots[i] = self.at.len() as u32;
    }

    /// Drops every name, keeping the buffers: one store per name.
    fn clear(&mut self) {
        for &i in &self.at {
            self.slots[i as usize] = 0;
        }
        self.at.clear();
        self.ends.clear();
        self.text.clear();
    }
}

/// A heap's symbol table: the frozen boot names, then the young ones.
#[derive(Debug, Default)]
pub(crate) struct Symbols {
    boot: Rc<Part>,
    young: Part,
}

impl Symbols {
    /// The number of names interned.
    pub(crate) fn len(&self) -> usize {
        self.boot.len() + self.young.len()
    }

    /// The name of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is not in the table.
    pub(crate) fn name(&self, sym: Sym) -> &str {
        match sym.index().checked_sub(self.boot.len()) {
            None => self.boot.name(sym.index()),
            Some(k) => self.young.name(k),
        }
    }

    /// The symbol of `prefix` followed by `name`, if it was interned.
    pub(crate) fn find(&self, prefix: &str, name: &str) -> Option<Sym> {
        let h = hash(prefix, name);
        match self.boot.find(h, prefix, name) {
            Some(k) => Some(Sym(k)),
            None => {
                let k = self.young.find(h, prefix, name)?;
                Some(Sym(self.boot.len() as u32 + k))
            }
        }
    }

    /// The symbol of `prefix` followed by `name`, interning it in the
    /// young part if it is new.
    ///
    /// # Panics
    ///
    /// Panics if the table would hold `u32::MAX` names, or its young
    /// arena pass `u32::MAX` bytes.
    pub(crate) fn intern(&mut self, prefix: &str, name: &str) -> Sym {
        let h = hash(prefix, name);
        if let Some(k) = self.boot.find(h, prefix, name) {
            return Sym(k);
        }
        let base = self.boot.len() as u32;
        if let Some(k) = self.young.find(h, prefix, name) {
            return Sym(base + k);
        }
        assert!(self.len() < u32::MAX as usize, "symbol table full");
        Sym(base + self.young.push(h, prefix, name))
    }

    /// Moves every name into the frozen boot part.
    ///
    /// # Panics
    ///
    /// Panics if the table is already frozen.
    pub(crate) fn freeze(&mut self) {
        assert!(self.boot.len() == 0, "the symbol table is already frozen");
        let mut part = std::mem::take(&mut self.young);
        part.text.shrink_to_fit();
        part.ends.shrink_to_fit();
        part.slots.shrink_to_fit();
        // The boot part is never cleared, so it needs no slot list.
        part.at = Vec::new();
        self.boot = Rc::new(part);
    }
}

impl Clone for Symbols {
    fn clone(&self) -> Self {
        Symbols {
            boot: Rc::clone(&self.boot),
            young: self.young.clone(),
        }
    }

    /// From a frozen image (the same boot part, no young names), drops
    /// the young names in place; otherwise copies.
    fn clone_from(&mut self, source: &Self) {
        if Rc::ptr_eq(&self.boot, &source.boot) && source.young.len() == 0 {
            self.young.clear();
        } else {
            self.boot = Rc::clone(&source.boot);
            self.young.clone_from(&source.young);
        }
    }
}
