//! Property-based tests of the workload generators (dd-check harness).

use dd_check::{check, prop_assert, prop_assert_eq};
use dd_workload::kvsim::LruCache;
use dd_workload::{OpKind, OpStep, YcsbMix, YcsbWorkload};
use simkit::SimRng;

/// The LRU cache never exceeds its capacity and an immediate re-access
/// always hits.
#[test]
fn lru_capacity_invariant() {
    check("lru_capacity_invariant", |c| {
        let cap = c.usize_in(1, 64);
        let accesses = c.vec_of(1, 300, |c| c.u64_in(0, 200));
        let mut cache = LruCache::new(cap);
        for &b in &accesses {
            cache.access(b);
            prop_assert!(cache.len() <= cap);
        }
        if let Some(&last) = accesses.last() {
            prop_assert!(cache.access(last));
        }
        Ok(())
    });
}

/// Every YCSB mix terminates after exactly the requested primary ops
/// (RMWs split into two halves; maintenance excluded), and every produced
/// op is well-formed.
#[test]
fn ycsb_ops_well_formed() {
    check("ycsb_ops_well_formed", |c| {
        let seed = c.any_u64();
        let ops = c.u64_in(1, 200);
        for mix in [YcsbMix::A, YcsbMix::B, YcsbMix::E, YcsbMix::F] {
            let mut w = YcsbWorkload::new(
                mix,
                dd_workload::kvsim::KvConfig {
                    keys: 1_000,
                    cache_blocks: 100,
                    memtable_entries: 16,
                    ..Default::default()
                },
                ops,
            );
            let mut rng = SimRng::new(seed);
            let mut primary_units = 0u64;
            let mut guard = 0u64;
            while let Some(op) = w.next_op(&mut rng) {
                guard += 1;
                prop_assert!(guard < ops * 8 + 16, "runaway op stream");
                prop_assert!(!op.steps.is_empty());
                for s in &op.steps {
                    if let OpStep::IoParallel(v) = s {
                        prop_assert!(!v.is_empty(), "empty parallel burst");
                    }
                }
                match op.kind {
                    OpKind::Maintenance => {}
                    OpKind::ReadModifyWrite => primary_units += 1,
                    _ => primary_units += 2,
                }
            }
            prop_assert_eq!(primary_units, ops * 2, "mix {:?}", mix);
        }
        Ok(())
    });
}
