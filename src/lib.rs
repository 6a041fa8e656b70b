//! # customized-dlb
//!
//! A full reproduction of **"Customized Dynamic Load Balancing for a
//! Network of Workstations"** (Zaki, Li & Parthasarathy, HPDC'96 /
//! Rochester TR 602): four interrupt-based, receiver-initiated dynamic
//! load balancing strategies (global/local × centralized/distributed), an
//! analytic cost model that *selects* the best strategy per loop, a
//! mini-compiler that turns annotated sequential loop nests into SPMD
//! plans with DLB calls, and the substrates needed to evaluate all of it:
//! a discrete-event NOW simulator, a parametric Ethernet model and the
//! paper's discrete random external-load generator.
//!
//! ## Crate map
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`core`] | `dlb-core` | the four strategies, balancer decision logic, transfer planning |
//! | [`model`] | `dlb-model` | Section-4 recurrences + hybrid decision process |
//! | [`compile`] | `dlb-compile` | annotated loop-nest language → SPMD plan + Fig-3 pseudo-code |
//! | [`apps`] | `dlb-apps` | MXM and TRFD work models |
//! | [`sim`] | `now-sim` | discrete-event network-of-workstations simulator |
//! | [`net`] | `now-net` | medium model, pattern costs, polyfit characterization |
//! | [`load`] | `now-load` | external load functions and effective-speed math |
//! | [`fault`] | `now-fault` | seeded fault injection + failure-aware protocol parameters |
//! | [`serve`] | `now-serve` | multi-client run server with a content-addressed result memo; its worker pool is the parallel grid engine for experiment sweeps |
//!
//! ## Quickstart
//!
//! ```
//! use customized_dlb::prelude::*;
//!
//! // A 4-workstation NOW with the paper's random external load.
//! let cluster = ClusterSpec::paper_homogeneous(4, 42, 2.0);
//! // A uniform parallel loop: 200 iterations, 10 ms each, 800 B/iter.
//! let work = UniformLoop::new(200, 0.01, 800);
//! // Run noDLB + all four strategies and pick the winner.
//! let sweep = run_all_strategies(&cluster, &work, 2);
//! let best = sweep.actual_order()[0];
//! println!("best strategy: {best}");
//! # assert_eq!(sweep.no_dlb.total_iters, 200);
//! ```

pub use dlb_apps as apps;
pub use dlb_compile as compile;
pub use dlb_core as core;
pub use dlb_model as model;
pub use now_fault as fault;
pub use now_load as load;
pub use now_net as net;
pub use now_serve as serve;
pub use now_sim as sim;

/// Everything most programs need.
pub mod prelude {
    pub use dlb_apps::{MxmConfig, TrfdConfig};
    pub use dlb_compile::{compile, compile_and_bind};
    pub use dlb_core::{
        AdaptiveConfig, CostFnLoop, FoldedLoop, IndexedLoop, LoopWorkload, Strategy,
        StrategyConfig, UniformLoop,
    };
    pub use dlb_model::{choose_strategy, predict, predict_all, SystemModel};
    pub use now_fault::{FailurePolicy, FaultPlan};
    pub use now_load::{DiscreteRandomLoad, LoadFunction, LoadSpec};
    pub use now_net::NetworkParams;
    pub use now_serve::{MemoConfig, RunKind, RunServer, RunSpec, ServeConfig, WorkloadSpec};
    pub use now_sim::{
        run_all_strategies, run_all_strategies_arc, run_dlb, run_dlb_adaptive,
        run_dlb_adaptive_arc, run_dlb_adaptive_faulty, run_dlb_arc, run_dlb_faulty,
        run_dlb_periodic, run_no_dlb, run_no_dlb_arc, ClusterSpec, RunReport,
    };
}
