use serde::{Deserialize, Serialize};
use symsim_logic::Value;
use symsim_netlist::{Driver, GateId, NetId, Netlist};

/// Per-net toggle/activity record accumulated during symbolic simulation.
///
/// A net is *toggled* (exercisable) if, after the observer is armed
/// (post-reset), its value ever changes or it already carries an unknown —
/// "if an X propagates to a gate, it is considered exercisable, since for
/// some input the gate could toggle" (paper §1).
///
/// Untoggled nets hold the recorded `baseline` constant for the entire
/// simulation; the bespoke flow ties their fanout to that constant
/// (Algorithm 1 line 42).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToggleProfile {
    toggled: Vec<bool>,
    baseline: Vec<Value>,
}

impl ToggleProfile {
    /// Arms a profile with the current (post-reset) values as baseline;
    /// already-unknown nets start toggled.
    pub fn baseline(values: &[Value]) -> ToggleProfile {
        ToggleProfile {
            toggled: values.iter().map(|v| v.is_unknown()).collect(),
            baseline: values.to_vec(),
        }
    }

    /// Marks `net` toggled.
    #[inline]
    pub fn mark(&mut self, net: NetId) {
        self.toggled[net.0 as usize] = true;
    }

    /// Marks every net flagged in `marks` toggled (one flag per net).
    ///
    /// # Panics
    ///
    /// Panics if the flag count differs from the net count.
    pub fn mark_all(&mut self, marks: &[bool]) {
        assert_eq!(self.toggled.len(), marks.len(), "one mark per net");
        for (t, &m) in self.toggled.iter_mut().zip(marks) {
            *t |= m;
        }
    }

    /// Has `net` toggled?
    pub fn is_toggled(&self, net: NetId) -> bool {
        self.toggled[net.0 as usize]
    }

    /// The constant value an untoggled net held (its baseline).
    pub fn constant_of(&self, net: NetId) -> Value {
        self.baseline[net.0 as usize]
    }

    /// Number of nets observed.
    pub fn len(&self) -> usize {
        self.toggled.len()
    }

    /// True for an empty design.
    pub fn is_empty(&self) -> bool {
        self.toggled.is_empty()
    }

    /// Number of toggled nets.
    pub fn toggled_count(&self) -> usize {
        self.toggled.iter().filter(|&&t| t).count()
    }

    /// Nets [`ToggleProfile::baseline`] marked toggled *at arm time*
    /// because they already carried an unknown. These toggles have no
    /// `mark` event — and therefore no first-exercise observation — so
    /// provenance consumers must seed them with a synthetic `reset`
    /// attribution instead of expecting a recorded toggle.
    pub fn baseline_unknowns(&self) -> Vec<NetId> {
        self.baseline
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_unknown())
            .map(|(i, _)| NetId(i as u32))
            .collect()
    }

    /// Merges activity from another path's profile (Algorithm 1 lines
    /// 29-32): a net is toggled if it toggled on either path, or if the two
    /// paths disagree about its constant value.
    ///
    /// # Panics
    ///
    /// Panics if the profiles are from different designs.
    pub fn merge(&mut self, other: &ToggleProfile) {
        assert_eq!(
            self.toggled.len(),
            other.toggled.len(),
            "profile size mismatch"
        );
        for i in 0..self.toggled.len() {
            let disagree = self.baseline[i] != other.baseline[i];
            self.toggled[i] |= other.toggled[i] || disagree;
            self.baseline[i] = self.baseline[i].merge(other.baseline[i]);
        }
    }

    /// Lifts net activity to gates: a gate is *exercisable* iff its output
    /// net toggled (Algorithm 1 lines 33-39).
    pub fn exercisable_gates(&self, netlist: &Netlist) -> Vec<GateId> {
        netlist
            .iter_gates()
            .filter(|(_, g)| self.is_toggled(g.output))
            .map(|(id, _)| id)
            .collect()
    }

    /// The paper's headline number: exercisable gate count over
    /// combinational and sequential cells (DFFs count via their `q` nets).
    pub fn exercisable_gate_count(&self, netlist: &Netlist) -> usize {
        let comb = self.exercisable_gates(netlist).len();
        let seq = netlist
            .dffs()
            .iter()
            .filter(|d| self.is_toggled(d.q))
            .count();
        comb + seq
    }

    /// Unexercisable gates with the constant their outputs held — the
    /// prune-and-tie-off worklist for bespoke generation.
    pub fn unexercisable_constants(&self, netlist: &Netlist) -> Vec<(GateId, Value)> {
        netlist
            .iter_gates()
            .filter(|(_, g)| !self.is_toggled(g.output))
            .map(|(id, g)| (id, self.constant_of(g.output)))
            .collect()
    }

    /// Checks that every net toggled in `other` (e.g. a concrete-input run)
    /// is also toggled here — the subset validation of paper §5.0.1.
    pub fn covers_activity(&self, other: &ToggleProfile) -> bool {
        self.toggled
            .iter()
            .zip(&other.toggled)
            .all(|(&a, &b)| a || !b)
    }

    /// Serializes the profile to a simple line-oriented text form
    /// (`<net-index> <toggled> <constant>` per line) for tool interchange.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("symsim-profile v1 {}\n", self.len());
        for i in 0..self.len() {
            let _ = writeln!(
                out,
                "{} {} {}",
                i,
                u8::from(self.toggled[i]),
                self.baseline[i]
            );
        }
        out
    }

    /// Parses the format produced by [`ToggleProfile::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed line.
    pub fn from_text(text: &str) -> Result<ToggleProfile, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty profile")?;
        let count: usize = header
            .strip_prefix("symsim-profile v1 ")
            .and_then(|n| n.trim().parse().ok())
            .ok_or("bad profile header")?;
        let mut toggled = vec![false; count];
        let mut baseline = vec![Value::X; count];
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let idx: usize = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| format!("bad net index in \"{line}\""))?;
            if idx >= count {
                return Err(format!("net index {idx} out of range"));
            }
            toggled[idx] = parts.next() == Some("1");
            baseline[idx] = match parts.next() {
                Some("0") => Value::ZERO,
                Some("1") => Value::ONE,
                Some("x") | None => Value::X,
                Some("z") => Value::Z,
                Some(sym) => {
                    // tagged symbols serialize as sN / !sN
                    let (inv, body) = match sym.strip_prefix('!') {
                        Some(b) => (true, b),
                        None => (false, sym),
                    };
                    let id: u32 = body
                        .strip_prefix('s')
                        .and_then(|n| n.parse().ok())
                        .ok_or_else(|| format!("bad value \"{sym}\""))?;
                    if inv {
                        Value::symbol_inverted(id)
                    } else {
                        Value::symbol(id)
                    }
                }
            };
        }
        Ok(ToggleProfile { toggled, baseline })
    }

    /// Nets whose drivers are primary inputs or memories are not gates; this
    /// helper reports how many toggled nets are actually gate-driven.
    pub fn toggled_gate_driven(&self, netlist: &Netlist) -> usize {
        let drivers = netlist.drivers();
        (0..self.toggled.len())
            .filter(|&i| self.toggled[i] && matches!(drivers[i], Some(Driver::Gate(_))))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_marks_unknowns() {
        let p = ToggleProfile::baseline(&[Value::ZERO, Value::X, Value::symbol(1)]);
        assert!(!p.is_toggled(NetId(0)));
        assert!(p.is_toggled(NetId(1)));
        assert!(p.is_toggled(NetId(2)));
        assert_eq!(p.toggled_count(), 2);
    }

    #[test]
    fn merge_detects_cross_path_disagreement() {
        let mut a = ToggleProfile::baseline(&[Value::ZERO, Value::ONE]);
        let b = ToggleProfile::baseline(&[Value::ZERO, Value::ZERO]);
        a.merge(&b);
        assert!(!a.is_toggled(NetId(0)));
        assert!(a.is_toggled(NetId(1)), "paths disagree on net 1's constant");
        assert!(a.constant_of(NetId(1)).is_x());
    }

    #[test]
    fn text_round_trip() {
        let mut p = ToggleProfile::baseline(&[
            Value::ZERO,
            Value::ONE,
            Value::X,
            Value::symbol(3),
            Value::symbol_inverted(4),
        ]);
        p.mark(NetId(0));
        let text = p.to_text();
        let back = ToggleProfile::from_text(&text).unwrap();
        assert_eq!(back, p);
        assert!(ToggleProfile::from_text("garbage").is_err());
        assert!(ToggleProfile::from_text("symsim-profile v1 2\n9 1 0").is_err());
    }

    #[test]
    fn covers_activity_subset() {
        let mut sup = ToggleProfile::baseline(&[Value::ZERO, Value::ZERO]);
        sup.mark(NetId(0));
        let mut sub = ToggleProfile::baseline(&[Value::ZERO, Value::ZERO]);
        assert!(sup.covers_activity(&sub));
        sub.mark(NetId(1));
        assert!(!sup.covers_activity(&sub));
    }
}
