//! Property-based tests of the mining substrate: K-means invariants,
//! Apriori anti-monotonicity, discretizer totality, DBSCAN label sanity,
//! and scaler round-trips.

use epc_mining::apriori::{is_subset, Apriori, TransactionSet};
use epc_mining::dbscan::{dbscan_with_runtime, DbscanConfig, DbscanLabel};
use epc_mining::discretize::Discretizer;
use epc_mining::kmeans::{KMeans, KMeansConfig};
use epc_mining::matrix::{sq_euclidean, Matrix};
use epc_mining::normalize::{MinMaxScaler, ZScoreScaler};
use proptest::prelude::*;
use std::collections::HashMap;

fn points(max_n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 2), 4..max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kmeans_assigns_to_nearest_centroid(rows in points(60), k in 1usize..5, seed in 0u64..5) {
        prop_assume!(rows.len() >= k);
        let m = Matrix::from_rows(&rows);
        let model = KMeans::new(KMeansConfig { k, seed, ..Default::default() })
            .fit_traced(&m, &epc_runtime::RuntimeConfig::sequential())
            .unwrap()
            .0;
        for (i, row) in m.rows().enumerate() {
            let assigned = sq_euclidean(row, model.centroids.row(model.assignments[i]));
            for c in 0..k {
                prop_assert!(assigned <= sq_euclidean(row, model.centroids.row(c)) + 1e-9);
            }
        }
        // SSE is exactly the sum of assigned squared distances.
        let sse: f64 = m
            .rows()
            .enumerate()
            .map(|(i, row)| sq_euclidean(row, model.centroids.row(model.assignments[i])))
            .sum();
        prop_assert!((sse - model.sse).abs() < 1e-6 * (1.0 + sse));
    }

    #[test]
    fn kmeans_partitions_everything(rows in points(60), k in 1usize..6) {
        prop_assume!(rows.len() >= k);
        let m = Matrix::from_rows(&rows);
        let model = KMeans::new(KMeansConfig { k, ..Default::default() })
            .fit_traced(&m, &epc_runtime::RuntimeConfig::sequential())
            .unwrap()
            .0;
        prop_assert_eq!(model.assignments.len(), m.n_rows());
        prop_assert!(model.assignments.iter().all(|&a| a < k));
        prop_assert_eq!(model.cluster_sizes().iter().sum::<usize>(), m.n_rows());
    }

    #[test]
    fn minmax_scales_into_unit_box(rows in points(50)) {
        let m = Matrix::from_rows(&rows);
        let (s, t) = MinMaxScaler::fit_transform(&m).unwrap();
        for row in t.rows() {
            for &x in row {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&x));
            }
        }
        // Inverse round-trips.
        for i in 0..t.n_rows() {
            for (a, b) in s.inverse_row(t.row(i)).iter().zip(m.row(i)) {
                prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn zscore_inverse_round_trips(rows in points(50)) {
        let m = Matrix::from_rows(&rows);
        let (s, t) = ZScoreScaler::fit_transform(&m).unwrap();
        for i in 0..t.n_rows() {
            for (a, b) in s.inverse_row(t.row(i)).iter().zip(m.row(i)) {
                prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn dbscan_labels_are_dense_and_complete(rows in points(60), eps in 1.0f64..50.0, min_pts in 1usize..6) {
        let m = Matrix::from_rows(&rows);
        let res = dbscan_with_runtime(
            &m,
            &DbscanConfig { eps, min_points: min_pts },
            &epc_runtime::RuntimeConfig::sequential(),
        );
        prop_assert_eq!(res.labels.len(), m.n_rows());
        for l in &res.labels {
            if let DbscanLabel::Cluster(c) = l {
                prop_assert!(*c < res.n_clusters);
            }
        }
        // Every cluster id is used.
        let sizes = res.cluster_sizes();
        prop_assert!(sizes.iter().all(|&s| s > 0));
    }

    #[test]
    fn discretizer_bins_partition_the_line(edges in prop::collection::vec(-100.0f64..100.0, 0..6), x in -200.0f64..200.0) {
        let mut sorted = edges.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup();
        let d = Discretizer::with_auto_labels("attr", sorted.clone()).unwrap();
        let idx = d.bin_index(x);
        prop_assert!(idx < d.n_bins());
        // Monotone in x.
        let idx2 = d.bin_index(x + 50.0);
        prop_assert!(idx2 >= idx);
        // The label exists.
        prop_assert!(!d.bin_label(x).is_empty());
    }

    #[test]
    fn is_subset_respects_set_semantics(
        a in prop::collection::btree_set(0u32..30, 0..8),
        b in prop::collection::btree_set(0u32..30, 0..12),
    ) {
        let av: Vec<u32> = a.iter().copied().collect();
        let bv: Vec<u32> = b.iter().copied().collect();
        prop_assert_eq!(is_subset(&av, &bv), a.is_subset(&b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Apriori's defining property: support is anti-monotone over the
    /// subset lattice, and reported counts match brute-force recounts.
    #[test]
    fn apriori_counts_are_exact(
        transactions in prop::collection::vec(
            prop::collection::btree_set(0u8..8, 1..6),
            4..30,
        ),
        min_support in 0.1f64..0.6,
    ) {
        let mut tset = TransactionSet::new();
        for t in &transactions {
            let items: Vec<String> = t.iter().map(|i| format!("item{i}")).collect();
            tset.push_owned(&items);
        }
        let frequent = Apriori { min_support, max_len: 4 }
            .mine_traced_with_runtime(&tset, &epc_runtime::RuntimeConfig::sequential())
            .0;
        let by_items: HashMap<&[u32], usize> =
            frequent.iter().map(|f| (f.items.as_slice(), f.count)).collect();
        let min_count = (min_support * transactions.len() as f64).ceil().max(1.0) as usize;
        for f in &frequent {
            // Exact recount.
            let actual = tset
                .transactions()
                .iter()
                .filter(|t| is_subset(&f.items, t))
                .count();
            prop_assert_eq!(actual, f.count);
            prop_assert!(f.count >= min_count);
            // Anti-monotonicity.
            if f.items.len() >= 2 {
                for skip in 0..f.items.len() {
                    let sub: Vec<u32> = f
                        .items
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != skip)
                        .map(|(_, &v)| v)
                        .collect();
                    let sub_count = by_items.get(sub.as_slice());
                    prop_assert!(sub_count.is_some(), "missing subset of a frequent set");
                    prop_assert!(*sub_count.unwrap() >= f.count);
                }
            }
        }
    }
}
