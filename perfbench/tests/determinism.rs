//! The same seed yields a byte-identical op trace and data set; a
//! different seed yields different ones.

use perfbench::gen::{data_digest, op_trace, Scale};
use perfbench::WORKLOADS;

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let scale = Scale::tiny();
    for w in WORKLOADS {
        let a = op_trace(w, 42, 500, &scale);
        let b = op_trace(w, 42, 500, &scale);
        let c = op_trace(w, 43, 500, &scale);
        assert_eq!(a, b, "{w}: op trace differs under one seed");
        assert_ne!(a, c, "{w}: op trace ignores the seed");
        let (da, db, dc) = (
            data_digest(w, 42, &scale),
            data_digest(w, 42, &scale),
            data_digest(w, 43, &scale),
        );
        assert_eq!(da, db, "{w}: data set differs under one seed");
        assert_ne!(da, dc, "{w}: data set ignores the seed");
    }
}

#[test]
fn full_scale_meta_tree_matches_the_workload_definition() {
    let tree = perfbench::gen::MetaTree::new(7, Scale::full().meta_fanout);
    assert_eq!(tree.files.len(), 4096);
    let bytes: u64 = tree.files.iter().map(|(_, s)| s).sum();
    assert!(tree.files.iter().all(|(_, s)| (1024..=16384).contains(s)));
    // ~34 MiB: fits the 64 MiB cache.
    assert!((30 << 20..38 << 20).contains(&bytes), "{bytes}");
    // Three directory levels above every file.
    assert!(tree.files.iter().all(|(p, _)| p.matches('/').count() == 4));
}
