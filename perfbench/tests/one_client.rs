//! With one load thread no fill can race a write or another fill, so
//! every read is verifiable and none may differ from the reference. A
//! stale read at two clients is then the program's, not the checker's.

use dpc_perfbench::ops::{Plan, WORKLOADS};
use dpc_perfbench::run::{run, Options};

#[test]
fn one_client_sees_no_mismatch_on_any_workload() {
    for workload in &WORKLOADS {
        let outcome = run(&Options {
            plan: Plan::with_counts(workload, 5, 4_000, 8_000, 2_000),
            trace: false,
            clients: 1,
        });
        let check = &outcome.check;
        assert_eq!(check.failed, 0, "{}: {check:?}", workload.name);
        assert_eq!(check.stale, 0, "{}: {check:?}", workload.name);
        assert_eq!(check.unverified, 0, "{}: {check:?}", workload.name);
        assert_eq!(check.verified, check.reads, "{}", workload.name);
        assert!(outcome.correct, "{}", workload.name);
        assert_eq!(outcome.failed, 0, "{}", workload.name);
    }
}
