use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use symsim_logic::{Value, Word};

/// Words per copy-on-write page of a [`MemArray`].
///
/// Snapshots and forked simulators share pages by reference; the first write
/// into a shared page clones just that page. 64 words keeps a page at
/// `64 * width * size_of::<Value>()` bytes — 4 KiB for a 64-bit-word memory —
/// so fork cost is O(dirty pages), not O(memory).
pub const PAGE_WORDS: usize = 64;

static COW_PAGES_CLONED: AtomicU64 = AtomicU64::new(0);
static COW_BYTES_CLONED: AtomicU64 = AtomicU64::new(0);

/// `(pages, bytes)` cloned by copy-on-write page splits since process start
/// (or the last [`reset_cow_clone_stats`]). Process-wide instrumentation for
/// benchmarks asserting that fork cost scales with dirty pages.
pub fn cow_clone_stats() -> (u64, u64) {
    (
        COW_PAGES_CLONED.load(Ordering::Relaxed),
        COW_BYTES_CLONED.load(Ordering::Relaxed),
    )
}

/// Resets the counters reported by [`cow_clone_stats`].
pub fn reset_cow_clone_stats() {
    COW_PAGES_CLONED.store(0, Ordering::Relaxed);
    COW_BYTES_CLONED.store(0, Ordering::Relaxed);
}

/// A memory array's contents: `depth` words of `width` bits, stored in
/// copy-on-write pages of [`PAGE_WORDS`] words.
///
/// Cloning a `MemArray` (directly, or via [`SimState`] snapshots) is
/// O(pages) reference-count bumps; the underlying bits are shared until
/// written. All mutation goes through [`MemArray::set_word`] /
/// [`MemArray::merge_word`], which split only the touched page.
#[derive(Debug, Clone)]
pub struct MemArray {
    width: usize,
    depth: usize,
    pages: Vec<Arc<Vec<Value>>>,
    // sticky: some `Z` or tagged symbol was ever stored (it may since have
    // been overwritten), so `may_hold_inexact` is O(1) instead of a scan
    inexact: bool,
}

/// Contents equality; the sticky [`MemArray::may_hold_inexact`] flag is
/// bookkeeping about the array's history and takes no part.
impl PartialEq for MemArray {
    fn eq(&self, other: &MemArray) -> bool {
        self.width == other.width && self.depth == other.depth && self.pages == other.pages
    }
}

impl Eq for MemArray {}

/// True when the two-plane encoding cannot represent `v` exactly: `Z` and
/// tagged symbols fold to an anonymous unknown there.
#[inline]
pub(crate) fn plane_inexact(v: Value) -> bool {
    matches!(v, Value::Sym(_)) || v == Value::Z
}

/// Whether any bit of `w` is [`plane_inexact`]; no early exit, so the scan
/// of a word stays a straight (vectorizable) pass on the write path.
fn holds_inexact(w: &Word) -> bool {
    w.iter().fold(false, |acc, &v| acc | plane_inexact(v))
}

impl MemArray {
    /// An all-`X` array.
    pub fn xs(depth: usize, width: usize) -> MemArray {
        let mut pages = Vec::with_capacity(depth.div_ceil(PAGE_WORDS.max(1)));
        let mut remaining = depth;
        while remaining > 0 {
            let words = remaining.min(PAGE_WORDS);
            pages.push(Arc::new(vec![Value::X; words * width]));
            remaining -= words;
        }
        MemArray {
            width,
            depth,
            pages,
            inexact: false,
        }
    }

    /// Rebuilds an array from flat bit contents (LSB of word 0 first).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of `width` (for non-zero
    /// widths).
    pub fn from_flat(width: usize, bits: &[Value]) -> MemArray {
        let depth = bits.len().checked_div(width).unwrap_or(0);
        assert_eq!(depth * width, bits.len(), "flat contents not word-aligned");
        let mut m = MemArray::xs(depth, width);
        m.inexact = bits.iter().any(|&v| plane_inexact(v));
        for (p, chunk) in bits.chunks(PAGE_WORDS * width.max(1)).enumerate() {
            if width > 0 {
                m.pages[p] = Arc::new(chunk.to_vec());
            }
        }
        m
    }

    /// Word width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of words.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Conservatively, whether any bit may be a `Z` or a tagged symbol:
    /// `false` guarantees every bit is `0`/`1`/`X`; `true` means such a
    /// value was stored at some point (the flag is sticky, never a scan).
    pub fn may_hold_inexact(&self) -> bool {
        self.inexact
    }

    /// Number of copy-on-write pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total size of the array contents in bytes (shared or not).
    pub fn content_bytes(&self) -> usize {
        self.depth * self.width * std::mem::size_of::<Value>()
    }

    /// Pages whose contents are currently shared with at least one other
    /// `MemArray` clone.
    pub fn shared_page_count(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| Arc::strong_count(p) > 1)
            .count()
    }

    #[inline]
    fn locate(&self, addr: usize) -> (usize, usize) {
        assert!(addr < self.depth, "memory address {addr} out of range");
        (addr / PAGE_WORDS, (addr % PAGE_WORDS) * self.width)
    }

    /// Mutable access to the page holding `addr`, splitting it first if it
    /// is shared (the copy-on-write step).
    #[inline]
    fn page_mut(&mut self, page: usize) -> &mut Vec<Value> {
        let arc = &mut self.pages[page];
        if Arc::strong_count(arc) > 1 {
            COW_PAGES_CLONED.fetch_add(1, Ordering::Relaxed);
            COW_BYTES_CLONED.fetch_add(
                (arc.len() * std::mem::size_of::<Value>()) as u64,
                Ordering::Relaxed,
            );
        }
        Arc::make_mut(arc)
    }

    /// Reads word `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr >= depth`.
    pub fn word(&self, addr: usize) -> Word {
        self.word_bits(addr).iter().copied().collect()
    }

    /// The bits of word `addr`, LSB first, borrowed from its page.
    ///
    /// # Panics
    ///
    /// Panics if `addr >= depth`.
    pub fn word_bits(&self, addr: usize) -> &[Value] {
        let (page, lo) = self.locate(addr);
        &self.pages[page][lo..lo + self.width]
    }

    /// Conservative join of the words at `addrs` — what a read whose
    /// address could select any of them returns; `None` for no address.
    ///
    /// # Panics
    ///
    /// Panics if an address is out of range.
    pub fn merge_words(&self, addrs: impl IntoIterator<Item = usize>) -> Option<Word> {
        let mut addrs = addrs.into_iter();
        let mut acc = self.word_bits(addrs.next()?).to_vec();
        for a in addrs {
            for (x, &v) in acc.iter_mut().zip(self.word_bits(a)) {
                *x = x.merge(v);
            }
        }
        Some(Word::from_bits(acc))
    }

    /// True when every page is physically shared with `other`: equal
    /// contents established without reading them (`false` says nothing).
    pub fn shares_pages_with(&self, other: &MemArray) -> bool {
        self.pages.len() == other.pages.len()
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// Reads bit `bit` of word `addr`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn word_bit(&self, addr: usize, bit: usize) -> Value {
        assert!(bit < self.width);
        let (page, lo) = self.locate(addr);
        self.pages[page][lo + bit]
    }

    /// Writes word `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr >= depth` or the word width differs.
    pub fn set_word(&mut self, addr: usize, w: &Word) {
        assert_eq!(w.width(), self.width, "memory word width mismatch");
        let (page, lo) = self.locate(addr);
        self.inexact |= holds_inexact(w);
        let width = self.width;
        self.page_mut(page)[lo..lo + width].copy_from_slice(w.as_slice());
    }

    /// Merges `w` into word `addr` (conservative join, used for writes with
    /// unknown address or enable).
    pub fn merge_word(&mut self, addr: usize, w: &Word) {
        assert_eq!(w.width(), self.width, "memory word width mismatch");
        let (page, lo) = self.locate(addr);
        // skip the page split when the merge would not change anything
        {
            let bits = &self.pages[page];
            if w.iter()
                .enumerate()
                .all(|(i, &v)| bits[lo + i].merge(v) == bits[lo + i])
            {
                return;
            }
        }
        // a join only yields Z or a symbol when an operand already is one
        self.inexact |= holds_inexact(w);
        let bits = self.page_mut(page);
        for (i, &v) in w.iter().enumerate() {
            bits[lo + i] = bits[lo + i].merge(v);
        }
    }

    /// Iterates all bits, LSB of word 0 first.
    pub fn iter_bits(&self) -> impl Iterator<Item = Value> + '_ {
        self.pages.iter().flat_map(|p| p.iter().copied())
    }

    /// Conservative join of two arrays of identical shape. Pages shared
    /// between the operands join to themselves and stay shared.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn merge(&self, other: &MemArray) -> MemArray {
        assert_eq!(self.width, other.width);
        assert_eq!(self.depth, other.depth);
        MemArray {
            width: self.width,
            depth: self.depth,
            pages: self
                .pages
                .iter()
                .zip(&other.pages)
                .map(|(a, b)| {
                    if Arc::ptr_eq(a, b) {
                        // merge is idempotent bitwise, so a shared page joins
                        // to itself and the result can keep sharing it
                        Arc::clone(a)
                    } else {
                        Arc::new(a.iter().zip(b.iter()).map(|(x, y)| x.merge(*y)).collect())
                    }
                })
                .collect(),
            inexact: self.inexact || other.inexact,
        }
    }

    /// Bitwise covering check (see [`Value::covers`]). Shared pages are
    /// skipped without comparing their contents.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn covers(&self, other: &MemArray) -> bool {
        assert_eq!(self.width, other.width);
        assert_eq!(self.depth, other.depth);
        self.pages
            .iter()
            .zip(&other.pages)
            .all(|(a, b)| Arc::ptr_eq(a, b) || a.iter().zip(b.iter()).all(|(x, y)| x.covers(*y)))
    }
}

/// A complete snapshot of simulation state: every net value, every memory
/// word, and the cycle counter.
///
/// This is what the paper's enhanced iverilog dumps when the Symbolic region
/// halts the simulation, and what `$initialize_state` reloads. Because the
/// simulator halts only at region boundaries (quiescent points), the event
/// queue is empty by construction and need not be serialized.
///
/// Snapshots are cheap to clone: memory contents live in copy-on-write pages
/// (see [`MemArray`]), so cloning — and therefore forking a path-exploration
/// child — costs O(net values + page references), with page contents copied
/// lazily only when a fork writes them.
///
/// `SimState` is also the object the Conservative State Manager merges:
/// [`SimState::merge`] is the bitwise conservative join over nets and
/// memories, and [`SimState::covers`] is the subset test of Algorithm 1
/// line 21.
#[derive(Debug, Clone, PartialEq)]
pub struct SimState {
    /// Value of every net, indexed by `NetId`.
    pub values: Vec<Value>,
    /// Contents of every memory, indexed by `MemoryId`.
    pub mems: Vec<MemArray>,
    /// Cycles simulated since power-on when the snapshot was taken.
    pub cycle: u64,
}

impl SimState {
    /// Conservative join: nets and memories merge bitwise; the cycle counter
    /// takes the maximum (it is bookkeeping, not machine state).
    ///
    /// # Panics
    ///
    /// Panics if the two states come from different designs.
    pub fn merge(&self, other: &SimState) -> SimState {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "merging states of different designs"
        );
        SimState {
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(a, b)| a.merge(*b))
                .collect(),
            mems: self
                .mems
                .iter()
                .zip(&other.mems)
                .map(|(a, b)| a.merge(b))
                .collect(),
            cycle: self.cycle.max(other.cycle),
        }
    }

    /// Is `other` a subset of (covered by) this state? True when every net
    /// and memory bit of `other` is covered, regardless of cycle counters.
    ///
    /// # Panics
    ///
    /// Panics if the two states come from different designs.
    pub fn covers(&self, other: &SimState) -> bool {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "covering states of different designs"
        );
        self.values
            .iter()
            .zip(&other.values)
            .all(|(a, b)| a.covers(*b))
            && self.mems.iter().zip(&other.mems).all(|(a, b)| a.covers(b))
    }

    /// Number of net bits that are not known `0`/`1`.
    pub fn unknown_net_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_unknown()).count()
    }

    /// Bytes of net-value storage a snapshot owns outright (memory pages are
    /// shared copy-on-write and excluded).
    pub fn owned_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<Value>()
    }

    /// Serializes to the compact binary form used for state dumps.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.values.len() + 64);
        put_u32(&mut buf, self.values.len() as u32);
        for v in &self.values {
            encode_value(&mut buf, *v);
        }
        put_u32(&mut buf, self.mems.len() as u32);
        for m in &self.mems {
            put_u32(&mut buf, m.width as u32);
            put_u32(&mut buf, (m.depth * m.width) as u32);
            for v in m.iter_bits() {
                encode_value(&mut buf, v);
            }
        }
        buf.extend_from_slice(&self.cycle.to_le_bytes());
        buf
    }

    /// Decodes a snapshot produced by [`SimState::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeStateError`] on truncated or corrupt input.
    pub fn decode(mut data: &[u8]) -> Result<SimState, DecodeStateError> {
        let n = read_u32(&mut data)? as usize;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(decode_value(&mut data)?);
        }
        let m = read_u32(&mut data)? as usize;
        let mut mems = Vec::with_capacity(m);
        for _ in 0..m {
            let width = read_u32(&mut data)? as usize;
            let len = read_u32(&mut data)? as usize;
            let mut bits = Vec::with_capacity(len);
            for _ in 0..len {
                bits.push(decode_value(&mut data)?);
            }
            if width > 0 && bits.len() % width != 0 {
                return Err(DecodeStateError::Truncated);
            }
            mems.push(MemArray::from_flat(width, &bits));
        }
        if data.len() < 8 {
            return Err(DecodeStateError::Truncated);
        }
        let cycle = u64::from_le_bytes(data[..8].try_into().expect("length checked"));
        Ok(SimState {
            values,
            mems,
            cycle,
        })
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn encode_value(buf: &mut Vec<u8>, v: Value) {
    match v {
        Value::Logic(l) => buf.push(l.to_code()),
        Value::Sym(s) => {
            buf.push(if s.inverted { 5 } else { 4 });
            put_u32(buf, s.id.0);
        }
    }
}

fn read_u32(data: &mut &[u8]) -> Result<u32, DecodeStateError> {
    if data.len() < 4 {
        return Err(DecodeStateError::Truncated);
    }
    let v = u32::from_le_bytes(data[..4].try_into().expect("length checked"));
    *data = &data[4..];
    Ok(v)
}

fn decode_value(data: &mut &[u8]) -> Result<Value, DecodeStateError> {
    let Some((&code, rest)) = data.split_first() else {
        return Err(DecodeStateError::Truncated);
    };
    *data = rest;
    match code {
        0..=3 => Ok(Value::Logic(
            symsim_logic::Logic::from_code(code).expect("code in range"),
        )),
        4 | 5 => {
            let id = read_u32(data)?;
            Ok(if code == 5 {
                Value::symbol_inverted(id)
            } else {
                Value::symbol(id)
            })
        }
        other => Err(DecodeStateError::BadValueCode(other)),
    }
}

/// Errors from [`SimState::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeStateError {
    /// The buffer ended before the snapshot was complete.
    Truncated,
    /// An unknown value encoding was encountered.
    BadValueCode(u8),
}

impl fmt::Display for DecodeStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeStateError::Truncated => write!(f, "state snapshot truncated"),
            DecodeStateError::BadValueCode(c) => write!(f, "invalid value code {c} in snapshot"),
        }
    }
}

impl std::error::Error for DecodeStateError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> SimState {
        let mut mem = MemArray::xs(4, 8);
        mem.set_word(1, &Word::from_u64(0xab, 8));
        SimState {
            values: vec![
                Value::ZERO,
                Value::ONE,
                Value::X,
                Value::Z,
                Value::symbol(7),
                Value::symbol_inverted(9),
            ],
            mems: vec![mem],
            cycle: 42,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = sample_state();
        let bytes = s.encode();
        let back = SimState::decode(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn decode_rejects_truncation() {
        let s = sample_state();
        let bytes = s.encode();
        for cut in [0, 1, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(SimState::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_rejects_bad_code() {
        let mut bytes = sample_state().encode();
        bytes[4] = 0xff; // first value code
        assert_eq!(
            SimState::decode(&bytes),
            Err(DecodeStateError::BadValueCode(0xff))
        );
    }

    #[test]
    fn merge_covers_both() {
        let a = sample_state();
        let mut b = a.clone();
        b.values[0] = Value::ONE;
        b.mems[0].set_word(1, &Word::from_u64(0xcd, 8));
        b.cycle = 50;
        let m = a.merge(&b);
        assert!(m.covers(&a));
        assert!(m.covers(&b));
        assert!(m.values[0].is_x());
        assert_eq!(m.cycle, 50);
        assert!(!a.covers(&b));
    }

    #[test]
    fn mem_array_word_ops() {
        let mut m = MemArray::xs(3, 4);
        assert_eq!(m.depth(), 3);
        m.set_word(2, &Word::from_u64(0b1010, 4));
        assert_eq!(m.word(2).to_u64(), Some(0b1010));
        m.merge_word(2, &Word::from_u64(0b1000, 4));
        assert_eq!(m.word(2).bit(1), Value::X);
        assert_eq!(m.word(2).bit(3), Value::ONE);
    }

    #[test]
    fn clone_shares_pages_until_written() {
        // 256 words of 8 bits = 4 pages of 64 words
        let mut a = MemArray::xs(256, 8);
        for i in 0..256 {
            a.set_word(i, &Word::from_u64(i as u64, 8));
        }
        let mut b = a.clone();
        assert_eq!(a.page_count(), 4);
        assert_eq!(a.shared_page_count(), 4);
        reset_cow_clone_stats();
        // one write into the clone splits exactly one page
        b.set_word(70, &Word::from_u64(0xff, 8));
        let (pages, bytes) = cow_clone_stats();
        assert_eq!(pages, 1);
        assert_eq!(
            bytes as usize,
            PAGE_WORDS * 8 * std::mem::size_of::<Value>()
        );
        assert_eq!(a.shared_page_count(), 3);
        // the original is unaffected, the clone sees its write
        assert_eq!(a.word(70).to_u64(), Some(70));
        assert_eq!(b.word(70).to_u64(), Some(0xff));
        // further writes to the same page split nothing new
        b.set_word(71, &Word::from_u64(0xee, 8));
        assert_eq!(cow_clone_stats().0, 1);
    }

    #[test]
    fn merge_word_skips_split_when_covered() {
        let a = MemArray::xs(64, 4);
        let mut b = a.clone();
        // merging into an all-X word changes nothing: no page split
        reset_cow_clone_stats();
        b.merge_word(3, &Word::from_u64(0b1010, 4));
        assert_eq!(cow_clone_stats().0, 0);
        assert_eq!(b.shared_page_count(), 1);
    }

    #[test]
    fn from_flat_round_trips() {
        let mut m = MemArray::xs(130, 3);
        m.set_word(0, &Word::from_u64(5, 3));
        m.set_word(129, &Word::from_u64(2, 3));
        let flat: Vec<Value> = m.iter_bits().collect();
        assert_eq!(flat.len(), 130 * 3);
        let back = MemArray::from_flat(3, &flat);
        assert_eq!(back, m);
        assert_eq!(back.page_count(), 3);
    }

    #[test]
    fn shared_pages_short_circuit_merge_and_covers() {
        let mut a = MemArray::xs(128, 8);
        a.set_word(0, &Word::from_u64(1, 8));
        let b = a.clone();
        assert!(a.covers(&b) && b.covers(&a));
        let m = a.merge(&b);
        // the merge of fully shared arrays shares every page with both
        assert_eq!(m.shared_page_count(), m.page_count());
        assert_eq!(m, a);
    }
}
