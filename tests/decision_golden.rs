//! Bit pins of the model's strategy decisions behind Tables 1 and 2.
//!
//! For every Table 1 MXM cell and every Table 2 TRFD loop cell at P=4
//! and P=16, the first load replica's [`DecisionReport`] is pinned: the
//! chosen strategy, the predicted order, and for each strategy the bits
//! of its predicted total time and overhead with its predicted syncs
//! and iterations moved. A rewrite of the model layer (system model,
//! σ fit, per-strategy prediction) must leave every row where it is.
//!
//! Each cell is built the way the tables build it: the same workload,
//! the same per-cell load salt on top of `LOAD_SEED`, the same
//! persistence and group size. One cell per table is cross-checked
//! against the decisions the table binaries themselves compute.

use dlb_apps::{MxmConfig, TrfdConfig};
use dlb_bench::{
    mxm_experiment_with, paper_group_size, persistence_for, trfd_loop_experiment_with, MemoConfig,
    RunServer, ServeConfig, TrfdLoop, WorkloadSpec, LOAD_SEED,
};
use dlb_core::work::LoopWorkload;
use dlb_core::IndexedLoop;
use dlb_model::{choose_strategy, DecisionReport, SystemModel};
use now_sim::ClusterSpec;

/// One cell: processors, label, the load salt its experiment uses, and
/// the workload.
struct Cell {
    p: usize,
    label: String,
    salt: u64,
    workload: WorkloadSpec,
}

/// Table 1's eight MXM rows, then Table 2's twelve TRFD loop rows, in
/// the tables' own order.
fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for p in [4usize, 16] {
        for cfg in MxmConfig::paper_configs(p) {
            cells.push(Cell {
                p,
                label: format!("MXM P={p} {}", cfg.label()),
                salt: cfg.r ^ (cfg.c << 16),
                workload: WorkloadSpec::mxm(cfg),
            });
        }
    }
    for p in [4usize, 16] {
        for which in [TrfdLoop::L1, TrfdLoop::L2] {
            for cfg in TrfdConfig::paper_configs() {
                let workload = match which {
                    TrfdLoop::L1 => WorkloadSpec::TrfdL1 { n: cfg.n },
                    TrfdLoop::L2 => WorkloadSpec::TrfdL2 { n: cfg.n },
                };
                cells.push(Cell {
                    p,
                    label: format!("TRFD P={p} {} {}", cfg.label(), which.label()),
                    salt: cfg.n ^ (((which == TrfdLoop::L2) as u64) << 32),
                    workload,
                });
            }
        }
    }
    cells
}

/// The first replica's decision for `cell`.
fn decide(cell: &Cell) -> DecisionReport {
    let built = cell.workload.build();
    let indexed;
    let wl: &dyn LoopWorkload = if built.is_uniform() {
        built.as_ref()
    } else {
        indexed = IndexedLoop::new(built.as_ref());
        &indexed
    };
    let cluster =
        ClusterSpec::paper_homogeneous(cell.p, LOAD_SEED ^ cell.salt, persistence_for(wl));
    let system = SystemModel::from_specs(cluster.speeds.clone(), &cluster.loads, cluster.net);
    choose_strategy(&system, wl, paper_group_size(cell.p))
}

/// One decision as a pin row: chosen, order, then per prediction
/// `strategy total_bits overhead_bits syncs iters_moved`.
fn row(d: &DecisionReport) -> String {
    let order: Vec<&str> = d.order.iter().map(|s| s.abbrev()).collect();
    let mut out = format!("{} [{}]", d.chosen.abbrev(), order.join(" "));
    for p in &d.predictions {
        out.push_str(&format!(
            " | {} {:016x} {:016x} {} {}",
            p.strategy.abbrev(),
            p.total_time.to_bits(),
            p.overhead.to_bits(),
            p.syncs,
            p.iters_moved
        ));
    }
    out
}

#[test]
fn table_decisions_are_pinned() {
    let actual: Vec<(String, String)> = cells()
        .iter()
        .map(|c| (c.label.clone(), row(&decide(c))))
        .collect();
    for (label, r) in &actual {
        println!("    (\"{label}\", \"{r}\"),");
    }
    assert_eq!(actual.len(), PINS.len(), "one pin per cell");
    for ((label, r), (pin_label, pin)) in actual.iter().zip(PINS) {
        assert_eq!(label, pin_label);
        assert_eq!(r, pin, "{label}: decision moved");
    }
}

/// The pinned cells are the tables' own: the first replica's decision
/// of one MXM and one TRFD cell, as the table experiments compute it,
/// equals the one built here.
#[test]
fn pinned_cells_match_the_table_experiments() {
    let server = RunServer::new(ServeConfig::new(1, MemoConfig::disabled()));
    let cells = cells();
    let mxm = MxmConfig::paper_configs(4)[0];
    let table1 = mxm_experiment_with(&server, 4, mxm);
    assert_eq!(table1.decisions[0], decide(&cells[0]));
    let trfd = TrfdConfig::paper_configs()[0];
    let table2 = trfd_loop_experiment_with(&server, 4, trfd, TrfdLoop::L2);
    let l2 = cells
        .iter()
        .position(|c| c.label == format!("TRFD P=4 {} L2", trfd.label()))
        .expect("the cell is pinned");
    assert_eq!(table2.decisions[0], decide(&cells[l2]));
}

#[rustfmt::skip]
const PINS: &[(&str, &str)] = &[
    ("MXM P=4 R=400,C=400,R2=400", "GD [GD GC LD LC] | GC 402660c74b8ce786 3fdc9ddab88f6fb8 4 109 | GD 40265f098bc32892 3fdbf65fd8adab9e 4 109 | LC 402981686308e53d 3fd0c4550b3be4ef 6 56 | LD 402978e6699f0175 3fceb2ac4881316a 6 56"),
    ("MXM P=4 R=400,C=800,R2=400", "GD [GD GC LD LC] | GC 4031dcf848cfd0e2 3fe0cd3e0bd449b0 7 119 | GD 4031db657895f0bd 3fe085a38a24f93f 7 119 | LC 40326b10c5f3f6f9 3fd475653c9abb43 7 71 | LD 40326748c8e158d9 3fd2f5de85a38a68 7 71"),
    ("MXM P=4 R=800,C=400,R2=400", "GD [GD GC LD LC] | GC 4034545e2a022402 3fd4975afaf859ae 5 64 | GD 403452200a23c0db 3fd3a807623ba67e 5 64 | LC 4034bbead03e7b2a 3fcb2243b011645e 6 41 | LD 4034b8c428044cba 3fc84c45e21acbea 6 41"),
    ("MXM P=4 R=800,C=800,R2=400", "GD [GD GC LD LC] | GC 40405a7ca11568f8 3ff25ebc2a2eef2d 7 303 | GD 4040593363258af4 3ff226f2e8c04840 7 303 | LC 40481a57af5de236 3fd4b8cc40fd6806 6 76 | LD 4048191505ad02d6 3fd375c55b301935 6 76"),
    ("MXM P=16 R=1600,C=400,R2=400", "GC [GC GD LC LD] | GC 4025f2cbdfb9d300 400313660e51d259 7 553 | GD 402745062fb847ce 400864aec8d5c74c 8 559 | LC 402b650b09901351 40014b548935e5d9 12 497 | LD 402b7d9af45441e7 4001e2dcde039d85 12 497"),
    ("MXM P=16 R=1600,C=800,R2=400", "GC [GC GD LC LD] | GC 403022d6424fbf15 40019422ccb3a253 7 548 | GD 4030f7a7d7f8bd5b 4007ebe6fcb22612 8 561 | LC 40351ac13d65d563 4001d819fef65c82 12 541 | LD 403527b02988f063 4002bf9256200f00 12 541"),
    ("MXM P=16 R=3200,C=400,R2=400", "GC [GC GD LC LD] | GC 402aa955661c4cf8 40116742405e05b3 6 1178 | GD 402b9872f8d44b00 4013457d65ce01c4 6 1178 | LC 40334eebaf6ee155 400d3d096621e4c0 9 989 | LD 403356c5bffcfdcc 400dc3eb665c9d22 9 989"),
    ("MXM P=16 R=3200,C=800,R2=400", "GC [GC GD LC LD] | GC 40411977e89deee6 401192a145eeafdd 7 1160 | GD 40415fe00463be99 4013ec9028486529 7 1174 | LC 4043e7ac0ca3cf42 40111d6cd12b47e7 13 1132 | LD 4043ef1a1ddb8e9a 401184f25fbcb757 13 1132"),
    ("TRFD P=4 N=30 (465) L1", "LD [LD LC GD GC] | GC 40030096dbfff672 3fdd0864e1ba5306 6 84 | GD 4002deb051f2c1d9 3fdbf9309150ae2e 6 84 | LC 40011f5514db2f3b 3fc21290257c913f 6 17 | LD 400102290f2c2c13 3fbe7924af0bf194 6 17"),
    ("TRFD P=4 N=40 (820) L1", "GD [GD GC LD LC] | GC 401924e41c8dee82 3ff2ab3aabcd78bb 6 152 | GD 4019162f9d4e2bad 3ff2676d97b30f84 6 152 | LC 401a2d3150719f16 3fe887f69b440551 5 103 | LD 401a25a1564c62d4 3fe7f0b7105b503a 5 103"),
    ("TRFD P=4 N=50 (1275) L1", "GD [GD GC LD LC] | GC 40326ad4e14a79e6 400632799a1fd14c 6 250 | GD 403267d7d012433e 40061a91105e1c0c 6 250 | LC 4036b015f8e943b3 400920f8e7ddca42 9 285 | LD 4036acc6fb78f957 4008dce91c8eabf5 9 285"),
    ("TRFD P=4 N=30 (465) L2", "GD [GD GC LD LC] | GC 4000d5de91c66873 3fee51116a8b8f18 5 107 | GD 400013f5b39204ca 3fea273f1b0f979a 6 92 | LC 40010002b31c749c 3fe1f097c80841ee 7 61 | LD 4000ef5f8cca89a5 3fe11cd86bf5aacd 7 61"),
    ("TRFD P=4 N=40 (820) L2", "LD [LD LC GD GC] | GC 401287c922b92d7d 3fe2135f10bffa0e 3 37 | GD 4012840dc60f97a5 3fe1e38dfd3c8f8c 3 37 | LC 40122ca2de0bdf5b 3fe0afaf2c19ab13 6 33 | LD 401223ca66e6e4cf 3fe00e2bb93303ab 6 33"),
    ("TRFD P=4 N=50 (1275) L2", "LD [LD LC GD GC] | GC 403230350c1b15ad 40141044c4e4596b 7 230 | GD 40322f6f3eb16aee 4014075174ae6f5c 7 230 | LC 403123b834984665 400448a6fc58ab90 9 114 | LD 40311f9b8494073c 4004049731098d46 9 114"),
    ("TRFD P=16 N=30 (465) L1", "LC [LC LD GC GD] | GC 3ff3a43891fc6669 3ffa06b7aa25d8d4 8 260 | GD 3ff7e43a06404019 3ffbe0980b242070 5 247 | LC 3fefebc93d5ffff6 3ff3fb872138a680 14 183 | LD 3ff0d4aac676d683 3ff5c2b0ea183726 14 183"),
    ("TRFD P=16 N=40 (820) L1", "LC [LC LD GC GD] | GC 40097e8d6d11513c 400ba3c90f19c00e 8 415 | GD 400de6b8761b2cd2 4010628c207be822 8 422 | LC 4005bef01222175a 4006c591f9d9bce6 14 334 | LD 40062b4a186f800b 4007902bdd8cc6d8 14 334"),
    ("TRFD P=16 N=50 (1275) L1", "GC [GC LC LD GD] | GC 4019c16751fae62e 4018c2000dfb23b8 10 516 | GD 401c93b2dc848921 401c2d533c766145 9 535 | LC 401a061c58d84fff 4016918f2e05cccc 13 483 | LD 401a374de7376a8b 4016f6953c845c68 13 483"),
    ("TRFD P=16 N=30 (465) L2", "LD [LD LC GC GD] | GC 3ff68ad67057db89 40040dc81bd4b971 10 236 | GD 3fffd3b8628e6f2c 4007f3bb2a54aef8 8 233 | LC 3ff158957a4afa5d 3fffd7995ee136e8 14 184 | LD 3ff02bf0dde919da 400055893ce36e86 13 183"),
    ("TRFD P=16 N=40 (820) L2", "LC [LC LD GC GD] | GC 40081a97f8e23119 4011b67de7d400e8 8 278 | GD 400dced8c7502f71 401673f4932c08e8 8 322 | LC 4003faed8de358d9 4011356fc9bc7711 15 271 | LD 40046cdb71c8b7b6 4011a5019f3c70c9 15 271"),
    ("TRFD P=16 N=50 (1275) L2", "GC [GC LC LD GD] | GC 40133db249f3f896 4013a982182bff1d 7 207 | GD 40159eeff137e2eb 401667033fdecb8b 7 214 | LC 4013c3f3da3ff341 4010810ba6266fd7 12 172 | LD 4013ea9f89e53824 4010de4c51116a8d 12 172"),
];
