//! The counts a run emits depend on nothing but the seed: two same-seed
//! runs print the same `counts` line. One test, so no other benchmark run
//! shares the machine with these.

mod common;

/// The `counts {...}` line of one short run.
fn counts(workload: &str, seed: u64) -> serde_json::Value {
    let stdout = common::run(workload, seed, false);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("counts "))
        .expect("run prints its counts");
    serde_json::from_str(line).expect("counts are JSON")
}

#[test]
fn same_seed_runs_repeat_their_counts_exactly() {
    for workload in ["ep-tiny", "linpack-fresh", "wan-bulk"] {
        let first = counts(workload, 7);
        assert_eq!(first, counts(workload, 7), "{workload}");
        let other = counts(workload, 8);
        if workload != "ep-tiny" {
            // EP's only input is its size; every other workload is seeded.
            assert_ne!(
                first["input_fingerprint"], other["input_fingerprint"],
                "{workload}"
            );
        }
        // Each workload reaches the layer it was chosen for.
        let count = |k: &str| first[k].as_u64().expect("integer count");
        match workload {
            "linpack-fresh" => {
                assert!(count("request_bytes") >= 6 * 512 * 1024, "{first}");
                assert_eq!(count("refs"), 0, "{first}");
            }
            "wan-bulk" => assert!(
                count("chunks") >= 32 && count("refs") > 0 && count("argcache_hits") > 0,
                "{first}"
            ),
            _ => assert_eq!(count("request_bytes"), 0, "{first}"),
        }
    }
}
