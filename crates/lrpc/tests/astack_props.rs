//! Property tests for A-stack allocation, validation and accounting.

use std::sync::Arc;

use firefly::cost::CostModel;
use firefly::cpu::Machine;
use kernel::kernel::Kernel;
use kernel::Domain;
use lrpc::{AStackMapping, AStackPolicy, AStackSet};
use proptest::prelude::*;

fn setup() -> (Arc<Kernel>, Arc<Domain>, Arc<Domain>) {
    let k = Kernel::new(Machine::new(1, CostModel::cvax_firefly()));
    let c = k.create_domain("client");
    let s = k.create_domain("server");
    (k, c, s)
}

fn allocate(k: &Kernel, c: &Domain, s: &Domain, spec: &[(usize, u32)]) -> AStackSet {
    let live = replay::Session::live();
    AStackSet::allocate(k, c, s, "p", spec, AStackMapping::Pairwise, &live)
}

/// Strategy: per-procedure (astack_size, simultaneous_calls) in realistic
/// ranges.
fn per_proc() -> impl Strategy<Value = Vec<(usize, u32)>> {
    proptest::collection::vec(
        (
            prop_oneof![Just(4usize), Just(12), Just(64), Just(256), Just(1500)],
            1u32..8,
        ),
        1..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn layout_is_disjoint_and_covers_every_stack(spec in per_proc()) {
        let (k, c, s) = setup();
        let set = allocate(&k, &c, &s, &spec);
        // Every index resolves, intervals are disjoint, class sizes match.
        let mut intervals: Vec<(usize, usize)> = Vec::new();
        for i in 0..set.total_count() {
            let r = set.lookup(i).expect("primary index resolves");
            prop_assert!(!r.overflow);
            prop_assert_eq!(r.size, set.classes()[r.class].size);
            prop_assert!(r.offset + r.size <= set.primary_region().len());
            intervals.push((r.offset, r.offset + r.size));
        }
        intervals.sort_unstable();
        for w in intervals.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "A-stacks overlap: {:?}", w);
        }
        // One class per distinct size.
        let mut sizes: Vec<usize> = spec.iter().map(|(s, _)| *s).collect();
        sizes.sort_unstable();
        sizes.dedup();
        prop_assert_eq!(set.classes().len(), sizes.len());
    }

    #[test]
    fn shared_classes_hold_the_max_count(spec in per_proc()) {
        let (k, c, s) = setup();
        let set = allocate(&k, &c, &s, &spec);
        for class in set.classes() {
            let max_requested = spec
                .iter()
                .filter(|(sz, _)| *sz == class.size)
                .map(|(_, n)| *n as usize)
                .max()
                .unwrap_or(0);
            prop_assert_eq!(class.primary_count, max_requested);
        }
    }

    #[test]
    fn acquire_release_conserves_the_pool(
        spec in per_proc(),
        ops in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..60),
    ) {
        let (k, c, s) = setup();
        let set = allocate(&k, &c, &s, &spec);
        let n_classes = set.classes().len();
        let mut held: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
        let initial: Vec<usize> = (0..n_classes).map(|c| set.free_count(c)).collect();

        for (sel, acquire) in ops {
            let class = sel as usize % n_classes;
            if acquire {
                if let Ok(idx) = set.acquire(class, AStackPolicy::Fail, &k, &c, &s) {
                    // Never hand out something already held.
                    prop_assert!(!held.iter().flatten().any(|&h| h == idx));
                    held[class].push(idx);
                }
            } else if let Some(idx) = held[class].pop() {
                set.release(idx);
            }
            // Conservation per class.
            for cl in 0..n_classes {
                prop_assert_eq!(set.free_count(cl) + held[cl].len(), initial[cl]);
            }
        }
    }

    #[test]
    fn validation_accepts_only_matching_classes(spec in per_proc(), probe in 0usize..64) {
        let (k, c, s) = setup();
        let set = allocate(&k, &c, &s, &spec);
        for class in 0..set.classes().len() {
            match set.validate(probe, class) {
                Ok(r) => {
                    prop_assert_eq!(r.class, class);
                    prop_assert!(probe < set.total_count());
                }
                Err(_) => {
                    // Either out of range or a different class.
                    let ok = probe >= set.total_count()
                        || set.lookup(probe).map(|r| r.class != class).unwrap_or(true);
                    prop_assert!(ok);
                }
            }
        }
    }

    /// The lock-free free list under real parallelism: however threads
    /// interleave acquire/release, no A-stack index is ever held by two
    /// callers at once (the ABA-versioned CAS can neither duplicate nor
    /// lose a node) and the pool is conserved when the dust settles.
    #[test]
    fn concurrent_acquire_release_never_double_allocates(
        spec in per_proc(),
        threads in 2usize..5,
        rounds in 1usize..40,
    ) {
        let (k, c, s) = setup();
        let set = Arc::new(allocate(&k, &c, &s, &spec));
        let n_classes = set.classes().len();
        let initial: Vec<usize> = (0..n_classes).map(|cl| set.free_count(cl)).collect();
        let in_flight = Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
        std::thread::scope(|scope| {
            for t in 0..threads {
                let set = Arc::clone(&set);
                let in_flight = Arc::clone(&in_flight);
                let (k, c, s) = (Arc::clone(&k), Arc::clone(&c), Arc::clone(&s));
                scope.spawn(move || {
                    for r in 0..rounds {
                        let class = (t + r) % n_classes;
                        if let Ok(idx) = set.acquire(class, AStackPolicy::Fail, &k, &c, &s) {
                            // `insert` returning false = double allocation.
                            assert!(
                                in_flight.lock().unwrap().insert(idx),
                                "index {idx} handed to two holders at once"
                            );
                            std::thread::yield_now();
                            in_flight.lock().unwrap().remove(&idx);
                            set.release(idx);
                        }
                    }
                });
            }
        });
        for (cl, &expect) in initial.iter().enumerate() {
            prop_assert_eq!(
                set.free_count(cl),
                expect,
                "pool conserved for class {}",
                cl
            );
        }
        prop_assert!(in_flight.lock().unwrap().is_empty());
    }

    #[test]
    fn grown_stacks_validate_on_the_slow_path(spec in per_proc(), grows in 1usize..5) {
        let (k, c, s) = setup();
        let set = allocate(&k, &c, &s, &spec);
        let before = set.total_count();
        for _ in 0..grows {
            let idx = set.grow(0, &k, &c, &s);
            let r = set.validate(idx, 0).expect("grown stack validates");
            prop_assert!(r.overflow, "grown stacks are non-contiguous");
            prop_assert!(set.linkage(idx).is_some(), "every A-stack has a linkage slot");
        }
        prop_assert_eq!(set.total_count(), before + grows);
    }
}
