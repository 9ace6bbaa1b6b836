//! Bit-packed two-plane gate algebra: 64 nets evaluated per word-op.
//!
//! A [`Lanes`] pair packs 64 four-state values into two `u64` bitplanes —
//! `val` (the known bit) and `unk` (1 where the lane is not a known `0`/`1`).
//! `Z` and tagged symbols fold into `unk`, exactly the normalization
//! [`ops`](crate::ops) applies to every gate *input* (`Z` is driven to `X`;
//! a batched evaluator keeps symbol identity by falling back to scalar
//! evaluation for lanes carrying symbols, so the planes never need to
//! represent them).
//!
//! Every gate function here is branch-free plane arithmetic and agrees with
//! the scalar [`ops`](crate::ops) functions lane-for-lane on all
//! [`Logic`](crate::Logic)-valued inputs under **both** propagation policies
//! (the policies only differ on tagged symbols, which are excluded by
//! construction). This is checked exhaustively by the differential property
//! tests in `tests/plane_props.rs`.
//!
//! # Invariant
//!
//! All functions expect and preserve the normalization `val & unk == 0`
//! (an unknown lane carries a zero `val` bit). [`pack`] produces normalized
//! planes.
//!
//! # Example
//!
//! ```
//! use symsim_logic::plane::{self, Lanes};
//!
//! let a = Lanes { val: 0b10, unk: 0b01 }; // lane0 = X, lane1 = 1
//! let b = Lanes { val: 0b00, unk: 0b00 }; // lane0 = 0, lane1 = 0
//! let y = plane::and2(a, b);
//! assert_eq!((y.val, y.unk), (0, 0)); // known 0 dominates X: both lanes 0
//! ```

use crate::{Logic, Value};

/// 64 four-state lanes packed as two bitplanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Lanes {
    /// Known-value bits; only meaningful where the `unk` bit is clear.
    pub val: u64,
    /// Unknown mask: 1 where the lane is `X` (or folded `Z`/symbol).
    pub unk: u64,
}

impl Lanes {
    /// All lanes known `0`.
    pub const ZEROS: Lanes = Lanes { val: 0, unk: 0 };
    /// All lanes known `1`.
    pub const ONES: Lanes = Lanes { val: !0, unk: 0 };

    /// The value of lane `i`, decoding unknowns as anonymous `X`.
    #[inline]
    pub fn get(self, i: u32) -> Value {
        if self.unk >> i & 1 == 1 {
            Value::X
        } else {
            Value::from_bool(self.val >> i & 1 == 1)
        }
    }

    /// Sets lane `i` (normalizing: unknown lanes carry a zero `val` bit).
    #[inline]
    pub fn set(&mut self, i: u32, v: Value) {
        let (vb, ub) = encode(v);
        self.val = self.val & !(1 << i) | u64::from(vb) << i;
        self.unk = self.unk & !(1 << i) | u64::from(ub) << i;
    }

    /// Every lane broadcast to the same value (`Z`/symbols fold to unknown).
    #[inline]
    pub fn broadcast(v: Value) -> Lanes {
        let (vb, ub) = encode(v);
        Lanes {
            val: if vb { !0 } else { 0 },
            unk: if ub { !0 } else { 0 },
        }
    }

    /// Lane-wise select: lanes where `mask` is set come from `a`, the rest
    /// from `b`. Both planes are selected together, so normalization is
    /// preserved.
    #[inline]
    pub fn select(mask: u64, a: Lanes, b: Lanes) -> Lanes {
        Lanes {
            val: (a.val & mask) | (b.val & !mask),
            unk: (a.unk & mask) | (b.unk & !mask),
        }
    }

    /// Masked writeback: lanes where `mask` is set take `new`'s bits, all
    /// other lanes keep `self`'s bits exactly. This is the cohort engine's
    /// lane-mask invariant: a masked-out (dead) lane can never be disturbed
    /// by a live lane's update.
    #[inline]
    #[must_use]
    pub fn merge_masked(self, new: Lanes, mask: u64) -> Lanes {
        // `select(mask, new, self)` spelled over the difference planes a
        // caller has usually just computed for `diff_mask`
        Lanes {
            val: self.val ^ ((self.val ^ new.val) & mask),
            unk: self.unk ^ ((self.unk ^ new.unk) & mask),
        }
    }

    /// Lanes whose value differs between `self` and `other` (either plane).
    #[inline]
    pub fn diff_mask(self, other: Lanes) -> u64 {
        (self.val ^ other.val) | (self.unk ^ other.unk)
    }

    /// Lanes carrying an unknown (`X`, or folded `Z`/symbol).
    #[inline]
    pub fn unknown_mask(self) -> u64 {
        self.unk
    }

    /// Lanes carrying a known `1`.
    #[inline]
    pub fn known_ones(self) -> u64 {
        self.val & !self.unk
    }

    /// Lanes carrying a known `0`.
    #[inline]
    pub fn known_zeros(self) -> u64 {
        !self.val & !self.unk
    }
}

/// Encodes one value as `(val, unk)` bits, folding `Z` and symbols into
/// the unknown plane.
#[inline]
pub fn encode(v: Value) -> (bool, bool) {
    match v {
        Value::Logic(Logic::Zero) => (false, false),
        Value::Logic(Logic::One) => (true, false),
        _ => (false, true),
    }
}

/// Packs up to 64 values into normalized planes (lane `i` = `values[i]`).
///
/// # Panics
///
/// Panics if more than 64 values are given.
pub fn pack(values: &[Value]) -> Lanes {
    assert!(values.len() <= 64, "at most 64 lanes per word");
    let mut lanes = Lanes::ZEROS;
    for (i, &v) in values.iter().enumerate() {
        lanes.set(i as u32, v);
    }
    lanes
}

/// Buffer: passes the folded input through.
#[inline]
pub fn buf(a: Lanes) -> Lanes {
    a
}

/// Inverter: known lanes flip, unknown lanes stay unknown.
#[inline]
pub fn not(a: Lanes) -> Lanes {
    Lanes {
        val: !a.val & !a.unk,
        unk: a.unk,
    }
}

/// Two-input AND: a known `0` on either side dominates any unknown.
#[inline]
pub fn and2(a: Lanes, b: Lanes) -> Lanes {
    Lanes {
        val: a.val & b.val,
        // unknown unless one side is a known 0 (val and unk both clear)
        unk: (a.unk | b.unk) & (a.val | a.unk) & (b.val | b.unk),
    }
}

/// Two-input OR: a known `1` on either side dominates any unknown.
#[inline]
pub fn or2(a: Lanes, b: Lanes) -> Lanes {
    Lanes {
        val: a.val | b.val,
        unk: (a.unk | b.unk) & !(a.val | b.val),
    }
}

/// Two-input NAND.
#[inline]
pub fn nand2(a: Lanes, b: Lanes) -> Lanes {
    not(and2(a, b))
}

/// Two-input NOR.
#[inline]
pub fn nor2(a: Lanes, b: Lanes) -> Lanes {
    not(or2(a, b))
}

/// Two-input XOR: any unknown input makes the lane unknown.
#[inline]
pub fn xor2(a: Lanes, b: Lanes) -> Lanes {
    let unk = a.unk | b.unk;
    Lanes {
        val: (a.val ^ b.val) & !unk,
        unk,
    }
}

/// Two-input XNOR.
#[inline]
pub fn xnor2(a: Lanes, b: Lanes) -> Lanes {
    not(xor2(a, b))
}

/// 2:1 mux (`sel = 0` selects `a`): an unknown select still yields the
/// agreed value when both data lanes are known and equal (the standard
/// X-pessimism reduction of [`ops::mux`](crate::ops::mux)).
#[inline]
pub fn mux2(sel: Lanes, a: Lanes, b: Lanes) -> Lanes {
    let known_sel = !sel.unk;
    let agree = !a.unk & !b.unk & !(a.val ^ b.val);
    let pick_a = known_sel & !sel.val;
    let pick_b = known_sel & sel.val;
    Lanes {
        val: (pick_a & a.val) | (pick_b & b.val) | (sel.unk & agree & a.val),
        unk: (pick_a & a.unk) | (pick_b & b.unk) | (sel.unk & !agree),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOMAIN: [Value; 4] = [Value::ZERO, Value::ONE, Value::X, Value::Z];

    fn normalized(l: Lanes) -> bool {
        l.val & l.unk == 0
    }

    #[test]
    fn pack_and_get_round_trip() {
        let vals = [Value::ZERO, Value::ONE, Value::X, Value::Z];
        let lanes = pack(&vals);
        assert!(normalized(lanes));
        assert_eq!(lanes.get(0), Value::ZERO);
        assert_eq!(lanes.get(1), Value::ONE);
        assert_eq!(lanes.get(2), Value::X);
        assert_eq!(lanes.get(3), Value::X); // Z folds to unknown
        assert_eq!(lanes.get(63), Value::ZERO); // unset lanes read as 0
    }

    #[test]
    fn gates_preserve_normalization() {
        for &a in &DOMAIN {
            for &b in &DOMAIN {
                for &s in &DOMAIN {
                    let (la, lb, ls) = (pack(&[a]), pack(&[b]), pack(&[s]));
                    for out in [
                        buf(la),
                        not(la),
                        and2(la, lb),
                        or2(la, lb),
                        nand2(la, lb),
                        nor2(la, lb),
                        xor2(la, lb),
                        xnor2(la, lb),
                        mux2(ls, la, lb),
                    ] {
                        assert!(normalized(out), "{a} {b} {s}");
                    }
                }
            }
        }
    }

    #[test]
    fn controlling_values_dominate() {
        let zero = pack(&[Value::ZERO]);
        let one = pack(&[Value::ONE]);
        let x = pack(&[Value::X]);
        assert_eq!(and2(zero, x).get(0), Value::ZERO);
        assert_eq!(and2(x, zero).get(0), Value::ZERO);
        assert_eq!(or2(one, x).get(0), Value::ONE);
        assert_eq!(nand2(zero, x).get(0), Value::ONE);
        assert_eq!(nor2(one, x).get(0), Value::ZERO);
        assert_eq!(xor2(one, x).get(0), Value::X);
    }

    #[test]
    fn mux_x_pessimism_reduction() {
        let x = pack(&[Value::X]);
        let one = pack(&[Value::ONE]);
        let zero = pack(&[Value::ZERO]);
        assert_eq!(mux2(x, one, one).get(0), Value::ONE);
        assert_eq!(mux2(x, zero, zero).get(0), Value::ZERO);
        assert_eq!(mux2(x, one, zero).get(0), Value::X);
        assert_eq!(mux2(x, x, x).get(0), Value::X);
        assert_eq!(mux2(zero, one, zero).get(0), Value::ONE);
        assert_eq!(mux2(one, one, zero).get(0), Value::ZERO);
    }

    #[test]
    fn whole_word_constants() {
        assert_eq!(Lanes::ONES.get(17), Value::ONE);
        assert_eq!(Lanes::ZEROS.get(17), Value::ZERO);
        assert_eq!(not(Lanes::ONES), Lanes::ZEROS);
    }

    #[test]
    fn broadcast_fills_all_lanes() {
        for &v in &DOMAIN {
            let l = Lanes::broadcast(v);
            assert!(normalized(l));
            let folded = if v == Value::Z { Value::X } else { v };
            assert_eq!(l.get(0), folded);
            assert_eq!(l.get(63), folded);
        }
    }

    #[test]
    fn merge_masked_keeps_dead_lanes() {
        let old = pack(&[Value::ZERO, Value::ONE, Value::X, Value::ONE]);
        let new = pack(&[Value::ONE, Value::X, Value::ZERO, Value::ZERO]);
        let merged = old.merge_masked(new, 0b0101);
        assert_eq!(merged.get(0), Value::ONE, "live lane takes the new value");
        assert_eq!(merged.get(1), Value::ONE, "dead lane keeps the old value");
        assert_eq!(merged.get(2), Value::ZERO);
        assert_eq!(merged.get(3), Value::ONE);
        assert!(normalized(merged));
    }

    #[test]
    fn reduction_masks_partition_lanes() {
        let l = pack(&[Value::ZERO, Value::ONE, Value::X, Value::Z]);
        assert_eq!(l.unknown_mask() & 0xf, 0b1100);
        assert_eq!(l.known_ones() & 0xf, 0b0010);
        assert_eq!(l.known_zeros() & 0xf, 0b0001);
        // the three masks partition the lane space
        assert_eq!(l.unknown_mask() ^ l.known_ones() ^ l.known_zeros(), !0);
    }

    #[test]
    fn diff_mask_finds_changed_lanes() {
        let a = pack(&[Value::ZERO, Value::ONE, Value::X]);
        let b = pack(&[Value::ONE, Value::ONE, Value::ZERO]);
        assert_eq!(a.diff_mask(b) & 0b111, 0b101);
        assert_eq!(a.diff_mask(a), 0);
    }
}
