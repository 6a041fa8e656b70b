//! Cluster description: the "network of workstations" under test.

use now_load::{LoadSpec, WorkClock};
use now_net::NetworkParams;
use serde::{Deserialize, Serialize};

/// A NOW: processor speeds, per-processor external load, and the
/// interconnect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Relative speed `S_i` of each processor (1.0 = the base processor).
    pub speeds: Vec<f64>,
    /// External load function of each processor.
    pub loads: Vec<LoadSpec>,
    /// Interconnect parameters.
    pub net: NetworkParams,
    /// The master processor hosting the centralized balancer (and the
    /// pseudo-master duties). The paper uses processor 0.
    pub master: usize,
}

impl ClusterSpec {
    /// The paper's experimental setup: `p` homogeneous processors
    /// (SPARC LX's, `S_i = 1`), independent discrete random load with
    /// `m_l = 5` and the given persistence, Ethernet/PVM network.
    pub fn paper_homogeneous(p: usize, load_seed: u64, persistence: f64) -> Self {
        assert!(p > 0);
        Self {
            speeds: vec![1.0; p],
            loads: (0..p)
                .map(|i| LoadSpec::paper_for_processor(load_seed, i, persistence))
                .collect(),
            net: NetworkParams::paper_ethernet(),
            master: 0,
        }
    }

    /// A dedicated (zero-load) homogeneous cluster — useful for protocol
    /// tests where timing must be exact.
    pub fn dedicated(p: usize) -> Self {
        assert!(p > 0);
        Self {
            speeds: vec![1.0; p],
            loads: vec![LoadSpec::Zero; p],
            net: NetworkParams::paper_ethernet(),
            master: 0,
        }
    }

    /// A heterogeneous dedicated cluster with explicit speeds.
    pub fn heterogeneous(speeds: Vec<f64>) -> Self {
        assert!(!speeds.is_empty());
        let p = speeds.len();
        Self {
            speeds,
            loads: vec![LoadSpec::Zero; p],
            net: NetworkParams::paper_ethernet(),
            master: 0,
        }
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.speeds.len()
    }

    /// Build the per-processor work clocks, checking the cluster on the
    /// way: the cluster-wide fields here, each processor's speed and load
    /// persistence in [`WorkClock::new`], every check once.
    ///
    /// # Panics
    /// Panics where [`ClusterSpec::validate`] does.
    pub fn clocks(&self) -> Vec<WorkClock> {
        assert_eq!(
            self.speeds.len(),
            self.loads.len(),
            "speeds/loads length mismatch"
        );
        assert!(!self.speeds.is_empty(), "need at least one processor");
        assert!(self.master < self.speeds.len(), "master out of range");
        self.net.validate();
        self.speeds
            .iter()
            .zip(&self.loads)
            .map(|(&s, l)| WorkClock::new(l.clone(), s))
            .collect()
    }

    /// Check internal consistency by building the clocks.
    ///
    /// # Panics
    /// Panics if speeds/loads disagree in length, any speed is
    /// non-positive, any load's persistence is not positive and finite,
    /// or the master is out of range.
    pub fn validate(&self) {
        let _ = self.clocks();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_shape() {
        let c = ClusterSpec::paper_homogeneous(16, 42, 1.0);
        assert_eq!(c.processors(), 16);
        assert_eq!(c.master, 0);
        c.validate();
        assert_eq!(c.clocks().len(), 16);
    }

    #[test]
    fn per_processor_loads_differ() {
        let c = ClusterSpec::paper_homogeneous(4, 42, 1.0);
        let differs = (0..50).any(|k| c.loads[0].level(k) != c.loads[1].level(k));
        assert!(differs);
    }

    #[test]
    fn dedicated_cluster_is_unloaded() {
        let c = ClusterSpec::dedicated(4);
        for f in &c.loads {
            assert_eq!(f.max_level(), 0);
        }
    }

    #[test]
    fn heterogeneous_speeds_respected() {
        let c = ClusterSpec::heterogeneous(vec![1.0, 2.0, 0.5]);
        let clocks = c.clocks();
        assert!((clocks[1].speed() - 2.0).abs() < 1e-12);
        assert!((clocks[2].speed() - 0.5).abs() < 1e-12);
    }

    /// Every bad persistence, on both load variants that carry one, is
    /// rejected with a message naming persistence, both where a cluster
    /// is checked and where the model is built from its specs.
    #[test]
    fn zero_persistence_rejected() {
        fn rejection<R>(f: impl FnOnce() -> R + std::panic::UnwindSafe) -> String {
            let err = std::panic::catch_unwind(f).err().expect("accepted");
            err.downcast_ref::<String>().expect("formatted").clone()
        }
        for tl in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            for bad in [
                LoadSpec::DiscreteRandom {
                    seed: 1,
                    max_load: 5,
                    persistence: tl,
                },
                LoadSpec::Trace {
                    levels: vec![2, 0],
                    persistence: tl,
                },
            ] {
                let mut c = ClusterSpec::paper_homogeneous(3, 7, 0.5);
                c.loads[1] = bad.clone();
                let msg = rejection(|| c.validate());
                assert!(msg.contains("persistence"), "{bad:?}: {msg}");
                let msg = rejection(|| {
                    dlb_model::SystemModel::from_specs(c.speeds.clone(), &c.loads, c.net)
                });
                assert!(msg.contains("persistence"), "{bad:?}: {msg}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "master")]
    fn master_out_of_range_rejected() {
        let mut c = ClusterSpec::dedicated(2);
        c.master = 5;
        c.validate();
    }
}
