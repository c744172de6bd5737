//! Fixture: the allow-directive escape hatch for the rule asm-lint owns.
//! Three directives are live (each suppresses a finding or marks a
//! boundary the hot-path walk reaches); the one on `dump` is dead.
pub struct System {
    scratch: Vec<u64>,
}

impl System {
    pub fn step(&mut self) {
        // asm-lint: allow(R9): fixture demonstrates the standalone form with
        // a reason that wraps onto a second comment line
        let spill = self.scratch.to_vec();
        self.count(&spill.len().to_string()); // asm-lint: allow(R9): fixture demonstrates the trailing form
        self.end_quantum();
    }

    // asm-lint: allow(R9): quantum boundary — the walk from `step` reaches it
    fn end_quantum(&mut self) {
        let snapshot = self.scratch.to_vec();
        let _ = snapshot;
    }

    // asm-lint: allow(R9): nothing on the hot path calls `dump`
    pub fn dump(&self) -> String {
        format!("{} entries", self.scratch.len())
    }

    fn count(&mut self, _name: &str) {}
}
