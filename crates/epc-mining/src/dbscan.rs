//! DBSCAN (Ester et al. 1996) — INDICE's multivariate outlier detector
//! (§2.1.2): points that no dense cluster reaches are labelled noise and
//! removed before analytics.

use crate::matrix::{euclidean, Matrix};
use std::collections::VecDeque;

/// Per-point DBSCAN label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbscanLabel {
    /// Noise: a multivariate outlier in INDICE's pipeline.
    Noise,
    /// Member of the cluster with this id (0-based).
    Cluster(usize),
}

impl DbscanLabel {
    /// `true` for [`DbscanLabel::Noise`].
    pub fn is_noise(&self) -> bool {
        matches!(self, DbscanLabel::Noise)
    }
}

/// DBSCAN parameters (the paper estimates them from the k-distance graph —
/// see [`crate::kdistance`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DbscanConfig {
    /// Neighbourhood radius ε.
    pub eps: f64,
    /// Minimum neighbourhood size (including the point itself) for a core
    /// point.
    pub min_points: usize,
}

/// Result of a DBSCAN run.
#[derive(Debug, Clone, PartialEq)]
pub struct DbscanResult {
    /// Per-point labels.
    pub labels: Vec<DbscanLabel>,
    /// Number of clusters found.
    pub n_clusters: usize,
    /// ε-neighbourhood scans performed (one per point — observability).
    pub region_queries: usize,
    /// Total neighbour links found across all region queries (self links
    /// included); `links / queries` is the mean neighbourhood size.
    pub neighbour_links: usize,
}

impl DbscanResult {
    /// Indices labelled noise (the multivariate outliers), ascending.
    pub fn noise_indices(&self) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_noise())
            .map(|(i, _)| i)
            .collect()
    }

    /// Sizes of the clusters.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.n_clusters];
        for l in &self.labels {
            if let DbscanLabel::Cluster(c) = l {
                sizes[*c] += 1;
            }
        }
        sizes
    }
}

/// Runs DBSCAN over the rows of `data` under an execution runtime.
///
/// Classic region-query formulation: a point is *core* when at least
/// `min_points` points (itself included) lie within `eps`; clusters grow by
/// density reachability from core points; border points join the first
/// cluster that reaches them; everything else is noise.
///
/// The ε-neighbourhood region queries — the O(n²) bulk of the algorithm,
/// and the sequential version issues one per point anyway — are
/// precomputed data-parallel; the density-reachability expansion then
/// walks the precomputed lists in the exact order of the sequential
/// algorithm, so labels and cluster ids are identical for any thread
/// budget.
pub fn dbscan_with_runtime(
    data: &Matrix,
    config: &DbscanConfig,
    runtime: &epc_runtime::RuntimeConfig,
) -> DbscanResult {
    let n = data.n_rows();
    const UNVISITED: usize = usize::MAX;
    const NOISE: usize = usize::MAX - 1;

    let points: Vec<usize> = (0..n).collect();
    let neighbours: Vec<Vec<usize>> =
        epc_runtime::par_map(runtime, &points, |&p| region_query(data, p, config.eps));
    let neighbour_links = neighbours.iter().map(Vec::len).sum();

    let mut label = vec![UNVISITED; n];
    let mut n_clusters = 0usize;

    for p in 0..n {
        if label[p] != UNVISITED {
            continue;
        }
        if neighbours[p].len() < config.min_points {
            label[p] = NOISE;
            continue;
        }
        // Start a new cluster and expand it.
        let cluster = n_clusters;
        n_clusters += 1;
        label[p] = cluster;
        let mut queue: VecDeque<usize> = neighbours[p].iter().copied().collect();
        while let Some(q) = queue.pop_front() {
            if label[q] == NOISE {
                label[q] = cluster; // noise becomes a border point
                continue;
            }
            if label[q] != UNVISITED {
                continue;
            }
            label[q] = cluster;
            if neighbours[q].len() >= config.min_points {
                queue.extend(neighbours[q].iter().copied());
            }
        }
    }

    let labels = label
        .into_iter()
        .map(|l| {
            if l == NOISE || l == UNVISITED {
                DbscanLabel::Noise
            } else {
                DbscanLabel::Cluster(l)
            }
        })
        .collect();
    DbscanResult {
        labels,
        n_clusters,
        region_queries: n,
        neighbour_links,
    }
}

/// Indices within `eps` of point `p` (including `p` itself).
fn region_query(data: &Matrix, p: usize, eps: f64) -> Vec<usize> {
    let row = data.row(p);
    (0..data.n_rows())
        .filter(|&q| euclidean(row, data.row(q)) <= eps)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use epc_runtime::RuntimeConfig;

    /// Two dense blobs plus isolated far-away points.
    fn blobs_with_noise() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        for i in 0..40 {
            let dx = ((i * 13) % 20) as f64 / 40.0;
            let dy = ((i * 7) % 20) as f64 / 40.0;
            rows.push(vec![0.0 + dx, 0.0 + dy]);
        }
        for i in 0..40 {
            let dx = ((i * 11) % 20) as f64 / 40.0;
            let dy = ((i * 19) % 20) as f64 / 40.0;
            rows.push(vec![10.0 + dx, 10.0 + dy]);
        }
        let noise_idx = vec![80, 81, 82];
        rows.push(vec![50.0, 50.0]);
        rows.push(vec![-50.0, 30.0]);
        rows.push(vec![30.0, -60.0]);
        (Matrix::from_rows(&rows), noise_idx)
    }

    #[test]
    fn finds_two_clusters_and_noise() {
        let (data, noise_idx) = blobs_with_noise();
        let res = dbscan_with_runtime(
            &data,
            &DbscanConfig {
                eps: 1.0,
                min_points: 4,
            },
            &RuntimeConfig::sequential(),
        );
        assert_eq!(res.n_clusters, 2);
        assert_eq!(res.noise_indices(), noise_idx);
        assert_eq!(res.cluster_sizes(), vec![40, 40]);
    }

    #[test]
    fn same_blob_same_cluster() {
        let (data, _) = blobs_with_noise();
        let res = dbscan_with_runtime(
            &data,
            &DbscanConfig {
                eps: 1.0,
                min_points: 4,
            },
            &RuntimeConfig::sequential(),
        );
        let first = res.labels[0];
        for i in 0..40 {
            assert_eq!(res.labels[i], first);
        }
        assert_ne!(res.labels[40], first, "blobs must be distinct clusters");
    }

    #[test]
    fn tiny_eps_makes_everything_noise() {
        let (data, _) = blobs_with_noise();
        let res = dbscan_with_runtime(
            &data,
            &DbscanConfig {
                eps: 1e-9,
                min_points: 4,
            },
            &RuntimeConfig::sequential(),
        );
        assert_eq!(res.n_clusters, 0);
        assert_eq!(res.noise_indices().len(), data.n_rows());
    }

    #[test]
    fn huge_eps_makes_one_cluster() {
        let (data, _) = blobs_with_noise();
        let res = dbscan_with_runtime(
            &data,
            &DbscanConfig {
                eps: 1e6,
                min_points: 4,
            },
            &RuntimeConfig::sequential(),
        );
        assert_eq!(res.n_clusters, 1);
        assert!(res.noise_indices().is_empty());
    }

    #[test]
    fn min_points_one_clusters_every_point() {
        // Every point is its own core; no noise possible.
        let (data, _) = blobs_with_noise();
        let res = dbscan_with_runtime(
            &data,
            &DbscanConfig {
                eps: 0.5,
                min_points: 1,
            },
            &RuntimeConfig::sequential(),
        );
        assert!(res.noise_indices().is_empty());
        assert!(res.n_clusters >= 2);
    }

    #[test]
    fn border_points_join_a_cluster() {
        // A dense core line plus one border point reachable from the core
        // but itself not core.
        let mut rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.1, 0.0]).collect();
        rows.push(vec![1.3, 0.0]); // within eps of the last core point only
        let data = Matrix::from_rows(&rows);
        let res = dbscan_with_runtime(
            &data,
            &DbscanConfig {
                eps: 0.45,
                min_points: 4,
            },
            &RuntimeConfig::sequential(),
        );
        assert_eq!(res.n_clusters, 1);
        assert!(
            !res.labels[10].is_noise(),
            "border point must belong to the cluster"
        );
    }

    #[test]
    fn empty_input() {
        let res = dbscan_with_runtime(
            &Matrix::zeros(0, 2),
            &DbscanConfig {
                eps: 1.0,
                min_points: 3,
            },
            &RuntimeConfig::sequential(),
        );
        assert_eq!(res.n_clusters, 0);
        assert!(res.labels.is_empty());
    }

    #[test]
    fn scan_stats_are_recorded() {
        let (data, _) = blobs_with_noise();
        let res = dbscan_with_runtime(
            &data,
            &DbscanConfig {
                eps: 1.0,
                min_points: 4,
            },
            &RuntimeConfig::sequential(),
        );
        assert_eq!(res.region_queries, data.n_rows());
        // Every point is within eps of itself, and neighbourhood
        // membership is symmetric, so links ≥ n and links is even-summed
        // consistently across thread budgets (checked by the equality
        // assertions in `parallel_run_matches_sequential`).
        assert!(res.neighbour_links >= data.n_rows());
    }

    #[test]
    fn deterministic() {
        let (data, _) = blobs_with_noise();
        let cfg = DbscanConfig {
            eps: 1.0,
            min_points: 4,
        };
        assert_eq!(
            dbscan_with_runtime(&data, &cfg, &RuntimeConfig::sequential()),
            dbscan_with_runtime(&data, &cfg, &RuntimeConfig::sequential())
        );
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let (data, _) = blobs_with_noise();
        let cfg = DbscanConfig {
            eps: 1.0,
            min_points: 4,
        };
        let seq = dbscan_with_runtime(&data, &cfg, &RuntimeConfig::sequential());
        for threads in [2usize, 8] {
            let par = dbscan_with_runtime(&data, &cfg, &RuntimeConfig::new(threads));
            assert_eq!(par, seq, "threads = {threads}");
        }
    }
}
