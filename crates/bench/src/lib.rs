//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Binaries (one per artifact, see DESIGN.md's experiment index):
//!
//! | binary              | artifact |
//! |---------------------|----------|
//! | `fig4_comm_cost`    | Fig. 4 — communication cost, measured + polyfit |
//! | `fig5_mxm`          | Fig. 5 — MXM normalized execution time, P = 4 |
//! | `fig6_mxm`          | Fig. 6 — MXM, P = 16 |
//! | `fig7_trfd`         | Fig. 7 — TRFD, P = 4 |
//! | `fig8_trfd`         | Fig. 8 — TRFD, P = 16 |
//! | `table1_mxm_order`  | Table 1 — MXM actual vs predicted order |
//! | `table2_trfd_order` | Table 2 — TRFD actual vs predicted order per loop |
//! | `ablations`         | design-choice ablations (DESIGN.md §4) |
//!
//! The library part holds the shared experiment definitions so the
//! binaries and the integration tests run the *same* configurations, and
//! [`check_pins`], the exact-count gate of the engine, server and chaos
//! self-benchmarks.

pub mod experiments;
pub mod table;

pub use experiments::{
    assert_work_conserved, mxm_experiment, mxm_experiment_with, paper_group_size, persistence_for,
    trfd_experiment, trfd_experiment_with, trfd_loop_experiment, trfd_loop_experiment_with,
    ExperimentResult, TrfdLoop, EPOCHS_PER_RUN, LOAD_PERSISTENCE, LOAD_SEED,
    REPLICAS as CELL_REPLICAS,
};
pub use now_serve::{MemoConfig, RunKind, RunServer, RunSpec, ServeConfig, WorkloadSpec};
pub use table::{format_table, Align};

/// Every difference between pinned `(counter, value)` rows and a fresh
/// run's rows, matched by counter name, as "counter: expected E, actual
/// A" lines (`-` for a missing side): pinned rows in their order, then
/// fresh counters that have no pin.
pub fn pin_mismatches<S: AsRef<str>>(pinned: &[(S, u64)], actual: &[(String, u64)]) -> Vec<String> {
    let find = |name: &str| actual.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    let mut out: Vec<String> = pinned
        .iter()
        .filter(|(name, v)| find(name.as_ref()) != Some(*v))
        .map(|(name, v)| {
            let name = name.as_ref();
            let shown = find(name).map_or("-".to_string(), |a| a.to_string());
            format!("{name}: expected {v}, actual {shown}")
        })
        .collect();
    out.extend(
        actual
            .iter()
            .filter(|(name, _)| !pinned.iter().any(|(n, _)| n.as_ref() == name))
            .map(|(name, v)| format!("{name}: expected -, actual {v}")),
    );
    out
}

/// Gate one bench cell on exact counts. With `pinned` rows, any
/// difference from `actual` is printed as expected against actual and
/// the process exits nonzero; there is no tolerance and no override. A
/// cell without pins prints its counts and does not gate.
pub fn check_pins<S: AsRef<str>>(
    cell: &str,
    pinned: Option<&[(S, u64)]>,
    actual: &[(String, u64)],
) {
    let Some(pinned) = pinned else {
        println!("pins: {cell} is not pinned; its counts:");
        for (name, v) in actual {
            println!("  {name} = {v}");
        }
        return;
    };
    let mismatches = pin_mismatches(pinned, actual);
    if mismatches.is_empty() {
        println!("pins: {cell}: all {} counters match exactly", pinned.len());
        return;
    }
    eprintln!("PIN MISMATCH in {cell}:");
    for m in &mismatches {
        eprintln!("  {m}");
    }
    eprintln!("re-pin the cell's table in the bench source if the change is intended");
    std::process::exit(1);
}

/// `(counter, value)` rows from parallel name and value columns, each
/// name prefixed with `prefix` (empty for none).
pub fn counter_rows(prefix: &str, names: &[&str], values: &[u64]) -> Vec<(String, u64)> {
    assert_eq!(names.len(), values.len(), "one value per counter");
    names
        .iter()
        .zip(values)
        .map(|(name, &v)| (format!("{prefix}{name}"), v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 3] = ["events", "compute", "protocol"];

    #[test]
    fn equal_tables_have_no_mismatch() {
        let rows = counter_rows("GC.", &NAMES, &[25, 21, 4]);
        assert!(pin_mismatches(&rows, &rows.clone()).is_empty());
    }

    #[test]
    fn a_one_off_difference_in_any_row_names_counter_expected_and_actual() {
        let values = [25u64, 21, 4];
        let pinned = counter_rows("GC.", &NAMES, &values);
        for row in 0..NAMES.len() {
            for fresh in [values[row] + 1, values[row] - 1] {
                let mut changed = values;
                changed[row] = fresh;
                let actual = counter_rows("GC.", &NAMES, &changed);
                assert_eq!(
                    pin_mismatches(&pinned, &actual),
                    [format!(
                        "GC.{}: expected {}, actual {fresh}",
                        NAMES[row], values[row]
                    )]
                );
            }
        }
    }

    #[test]
    fn missing_and_unpinned_counters_are_mismatches() {
        let pinned = counter_rows("", &NAMES[..2], &[25, 21]);
        let actual = counter_rows("", &["events", "protocol"], &[25, 4]);
        assert_eq!(
            pin_mismatches(&pinned, &actual),
            [
                "compute: expected 21, actual -",
                "protocol: expected -, actual 4"
            ]
        );
    }
}
