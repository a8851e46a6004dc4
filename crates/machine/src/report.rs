//! Traffic counters produced by a simulation run.

/// Classification of a cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissKind {
    /// First-ever access by this processor.
    Cold,
    /// The line was here but another processor's write invalidated it.
    Coherence,
    /// The line was evicted for capacity/conflict reasons (finite caches
    /// only).
    Capacity,
}

/// Counters for one processor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessorCounters {
    /// Total memory accesses issued.
    pub accesses: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cold misses.
    pub cold_misses: u64,
    /// Coherence misses.
    pub coherence_misses: u64,
    /// Capacity/conflict misses.
    pub capacity_misses: u64,
    /// Invalidation messages this processor's writes sent to other
    /// caches.
    pub invalidations_sent: u64,
    /// Invalidations received (lines it lost).
    pub invalidations_received: u64,
    /// Misses served by the local memory module.
    pub local_misses: u64,
    /// Misses served by a remote module (or requiring remote directory
    /// work).
    pub remote_misses: u64,
    /// Network distance accumulated by this processor's misses
    /// (2·hops(requester, home) per miss when a mesh is configured).
    pub hop_traffic: u64,
    /// Limited-directory pointer overflows charged to this processor's
    /// read misses (0 for a full-map directory).
    pub directory_overflows: u64,
}

impl ProcessorCounters {
    /// Total misses of all kinds.
    pub fn misses(&self) -> u64 {
        self.cold_misses + self.coherence_misses + self.capacity_misses
    }
}

/// Aggregated result of simulating one partitioned loop nest.
#[derive(Debug, Clone, Default)]
pub struct TrafficReport {
    /// Per-processor counters.
    pub per_processor: Vec<ProcessorCounters>,
    /// Number of outer sequential repetitions simulated.
    pub repetitions: u64,
}

impl TrafficReport {
    /// Sum a field across processors.
    fn sum(&self, f: impl Fn(&ProcessorCounters) -> u64) -> u64 {
        self.per_processor.iter().map(f).sum()
    }

    /// Total accesses.
    pub fn total_accesses(&self) -> u64 {
        self.sum(|c| c.accesses)
    }

    /// Total misses of all kinds.
    pub fn total_misses(&self) -> u64 {
        self.sum(ProcessorCounters::misses)
    }

    /// Total cold misses (≈ Σ cumulative footprints for infinite caches).
    pub fn total_cold_misses(&self) -> u64 {
        self.sum(|c| c.cold_misses)
    }

    /// Total coherence misses.
    pub fn total_coherence_misses(&self) -> u64 {
        self.sum(|c| c.coherence_misses)
    }

    /// Total capacity misses.
    pub fn total_capacity_misses(&self) -> u64 {
        self.sum(|c| c.capacity_misses)
    }

    /// Total invalidation messages.
    pub fn total_invalidations(&self) -> u64 {
        self.sum(|c| c.invalidations_sent)
    }

    /// Total remote-served misses.
    pub fn total_remote_misses(&self) -> u64 {
        self.sum(|c| c.remote_misses)
    }

    /// Total hop-weighted network traffic.
    pub fn total_hop_traffic(&self) -> u64 {
        self.sum(|c| c.hop_traffic)
    }

    /// Total limited-directory pointer overflows.
    pub fn total_directory_overflows(&self) -> u64 {
        self.sum(|c| c.directory_overflows)
    }

    /// Miss rate over all accesses.
    pub fn miss_rate(&self) -> f64 {
        let a = self.total_accesses();
        if a == 0 {
            0.0
        } else {
            self.total_misses() as f64 / a as f64
        }
    }

    /// Fraction of misses served remotely.
    pub fn remote_fraction(&self) -> f64 {
        let m = self.total_misses();
        if m == 0 {
            0.0
        } else {
            self.total_remote_misses() as f64 / m as f64
        }
    }

    /// Consistency invariant: hits + misses == accesses, per processor.
    pub fn check_conservation(&self) -> bool {
        self.per_processor
            .iter()
            .all(|c| c.hits + c.misses() == c.accesses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation() {
        let mut r = TrafficReport::default();
        r.per_processor.push(ProcessorCounters {
            accesses: 10,
            hits: 7,
            cold_misses: 2,
            coherence_misses: 1,
            ..Default::default()
        });
        r.per_processor.push(ProcessorCounters {
            accesses: 5,
            hits: 5,
            ..Default::default()
        });
        assert_eq!(r.total_accesses(), 15);
        assert_eq!(r.total_misses(), 3);
        assert_eq!(r.total_cold_misses(), 2);
        assert!(r.check_conservation());
        assert!((r.miss_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn conservation_detects_mismatch() {
        let mut r = TrafficReport::default();
        r.per_processor.push(ProcessorCounters {
            accesses: 10,
            hits: 2,
            cold_misses: 1,
            ..Default::default()
        });
        assert!(!r.check_conservation());
    }

    #[test]
    fn empty_report() {
        let r = TrafficReport::default();
        assert_eq!(r.miss_rate(), 0.0);
        assert_eq!(r.remote_fraction(), 0.0);
        assert!(r.check_conservation());
    }
}
