//! Result digests: a 64-bit hash over the bit pattern of every field of
//! every logged control interval, so "same outputs" is one comparison.

use pema_control::{IterationLog, RunResult};

/// Word-at-a-time FNV-1a-style hasher (one multiply per 64-bit word —
/// the 10 000-member fleet hashes tens of millions of words per
/// repetition, outside the timed region but inside the run's budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    pub fn log(&mut self, l: &IterationLog) {
        self.word(l.iter as u64);
        self.f64(l.time_s);
        self.f64(l.rps);
        self.f64(l.total_cpu);
        self.f64(l.p95_ms);
        self.f64(l.mean_ms);
        self.word(l.violated as u64);
        self.bytes(l.action.as_bytes());
        self.word(l.alloc.len() as u64);
        for a in &l.alloc {
            self.f64(*a);
        }
        self.word(l.pema_id as u64);
        self.f64(l.interval_s);
    }

    pub fn run(&mut self, r: &RunResult) {
        self.word(r.log.len() as u64);
        for l in &r.log {
            self.log(l);
        }
        for a in &r.final_alloc.0 {
            self.f64(*a);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> IterationLog {
        IterationLog {
            iter: 3,
            time_s: 132.0,
            rps: 700.0,
            total_cpu: 17.25,
            p95_ms: 212.5,
            mean_ms: 80.0,
            violated: false,
            action: "reduce(2)".into(),
            alloc: vec![1.5, 0.25, 2.0],
            pema_id: 0,
            interval_s: 40.0,
        }
    }

    fn digest_of(l: &IterationLog) -> u64 {
        let mut d = Digest::default();
        d.log(l);
        d.value()
    }

    #[test]
    fn digest_is_stable_across_runs_and_builds() {
        // Pinned value: the digest is compared across processes (twin
        // runs are separate fleets), so it must not depend on address
        // space layout or a per-process hasher seed.
        assert_eq!(digest_of(&entry()), digest_of(&entry()));
        assert_eq!(digest_of(&entry()), 0xcbae_9976_e32b_2188);
    }

    #[test]
    fn digest_sees_every_field() {
        let base = digest_of(&entry());
        let edits: [fn(&mut IterationLog); 11] = [
            |l| l.iter += 1,
            |l| l.time_s += 1.0,
            |l| l.rps += 1.0,
            |l| l.total_cpu = f64::from_bits(l.total_cpu.to_bits() + 1),
            |l| l.p95_ms = -l.p95_ms,
            |l| l.mean_ms += 1.0,
            |l| l.violated = true,
            |l| l.action.push('x'),
            |l| l.alloc[2] = 2.5,
            |l| l.pema_id = 1,
            |l| l.interval_s = 39.0,
        ];
        for edit in edits {
            let mut l = entry();
            edit(&mut l);
            assert_ne!(digest_of(&l), base);
        }
        // -0.0 and 0.0 compare equal but are different outputs.
        let mut l = entry();
        l.mean_ms = 0.0;
        let pos = digest_of(&l);
        l.mean_ms = -0.0;
        assert_ne!(digest_of(&l), pos);
    }
}
