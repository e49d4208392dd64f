//! How long a phase runs, and what it attempted and failed.

use std::time::Duration;

/// A phase runs until both its measured time and its operation count
/// are met. Only timed work counts, so checks do not shorten a phase.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_ops: usize,
}

impl Budget {
    pub fn more(&self, done: usize, measured: Duration) -> bool {
        done < self.min_ops || measured < Duration::from_secs_f64(self.seconds)
    }
}

/// Operations attempted and failed, with the first failures kept for
/// the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// A check made after the measured phases failed.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}
