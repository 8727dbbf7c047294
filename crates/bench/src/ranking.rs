//! Rank aggregation for Figure 6.
//!
//! For each experiment series (one algorithm on one dataset), orderings
//! are ranked by runtime, best first. Following the replication's reading
//! of the original paper's Figure 9 — which hides exact values above 1.5×
//! Gorder — runtimes can optionally be capped at `tie_factor ×` the
//! Gorder time before ranking, making everything beyond the cap tie.

use crate::experiment::CellResult;
use std::collections::BTreeMap;

/// Rank histogram over a set of series.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranking {
    /// Ordering names, in first-appearance order.
    pub orderings: Vec<String>,
    /// `counts[o][r]` = number of series where ordering `o` took rank `r`
    /// (0 = best). Ties share the best rank of the tied group.
    pub counts: Vec<Vec<u32>>,
    /// Number of series aggregated.
    pub series: u32,
    /// Series skipped because a `tie_factor` cap was requested but the
    /// series has no `"Gorder"` cell to anchor it. Ranking such a series
    /// uncapped would silently mix two different metrics into one
    /// histogram, so they are dropped and counted here instead.
    pub skipped_no_gorder: u32,
}

impl Ranking {
    /// Mean rank of ordering index `o` (lower is better).
    pub fn mean_rank(&self, o: usize) -> f64 {
        let total: u32 = self.counts[o].iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let weighted: f64 = self.counts[o]
            .iter()
            .enumerate()
            .map(|(r, &c)| r as f64 * f64::from(c))
            .sum();
        weighted / f64::from(total)
    }

    /// Number of first places for ordering index `o`.
    pub fn firsts(&self, o: usize) -> u32 {
        self.counts[o].first().copied().unwrap_or(0)
    }

    /// Index of an ordering by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.orderings.iter().position(|n| n == name)
    }
}

/// Sort/tie key that tolerates the non-finite times a timed-out robust
/// cell produces: finite times order normally; NaN and ±inf all collapse
/// into one group that sorts after every finite time. (Plain `total_cmp`
/// is not enough — it puts `-inf` *first* and breaks NaN tie-grouping,
/// since `NaN != NaN`.)
fn rank_key(t: f64) -> (u8, f64) {
    if t.is_finite() {
        (0, t)
    } else {
        (1, 0.0)
    }
}

/// Aggregates rank counts from grid cells.
///
/// `tie_factor`: if `Some(f)`, every runtime in a series is capped at
/// `f ×` that series' Gorder runtime before ranking (the replication uses
/// 1.5 when reading the original paper's figure). Series without a
/// `"Gorder"` cell cannot be capped and are skipped (see
/// [`Ranking::skipped_no_gorder`]); with `tie_factor: None` they rank
/// normally. Non-finite times (timed-out cells) never panic: they rank
/// last, tied with each other, and are exempt from the cap.
pub fn rank_counts(cells: &[CellResult], tie_factor: Option<f64>) -> Ranking {
    // group cells by (dataset, algo)
    let mut series: BTreeMap<(String, String), Vec<&CellResult>> = BTreeMap::new();
    let mut orderings: Vec<String> = Vec::new();
    for c in cells {
        if !orderings.contains(&c.ordering) {
            orderings.push(c.ordering.clone());
        }
        series
            .entry((c.dataset.clone(), c.algo.clone()))
            .or_default()
            .push(c);
    }
    let k = orderings.len();
    let mut counts = vec![vec![0u32; k]; k];
    let mut nseries = 0;
    let mut skipped_no_gorder = 0;
    for cells in series.values() {
        if cells.len() != k {
            continue; // incomplete series (filtered grids): skip
        }
        let gorder_secs = cells
            .iter()
            .find(|c| c.ordering == "Gorder")
            .map(|g| g.seconds);
        let cap = match (tie_factor, gorder_secs) {
            (Some(f), Some(g)) => Some(g * f),
            (Some(_), None) => {
                // A cap was requested but there is nothing to anchor it
                // to; ranking this series uncapped would corrupt the
                // histogram, so drop it and let the caller report it.
                skipped_no_gorder += 1;
                continue;
            }
            (None, _) => None,
        };
        nseries += 1;
        let mut timed: Vec<(f64, usize)> = cells
            .iter()
            .map(|c| {
                // Non-finite times (timed-out cells) stay non-finite so
                // they rank last; `f64::min` would silently swallow a
                // NaN into the cap.
                let t = match cap {
                    Some(cap) if c.seconds.is_finite() => c.seconds.min(cap),
                    _ => c.seconds,
                };
                let idx = orderings
                    .iter()
                    .position(|o| *o == c.ordering)
                    .expect("known ordering");
                (t, idx)
            })
            .collect();
        timed.sort_by(|a, b| {
            let (ka, kb) = (rank_key(a.0), rank_key(b.0));
            ka.0.cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
        });
        // ties share the best rank of their group
        let mut rank = 0;
        let mut i = 0;
        while i < timed.len() {
            let mut j = i;
            while j < timed.len() && rank_key(timed[j].0) == rank_key(timed[i].0) {
                j += 1;
            }
            for &(_, o) in &timed[i..j] {
                counts[o][rank] += 1;
            }
            rank += j - i;
            i = j;
        }
    }
    Ranking {
        orderings,
        counts,
        series: nseries,
        skipped_no_gorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(ds: &str, algo: &str, ord: &str, secs: f64) -> CellResult {
        CellResult {
            dataset: ds.into(),
            algo: algo.into(),
            ordering: ord.into(),
            seconds: secs,
            checksum: 0,
            stats: gorder_engine::KernelStats::default(),
        }
    }

    #[test]
    fn simple_ranking() {
        let cells = vec![
            cell("d", "A", "Gorder", 1.0),
            cell("d", "A", "Random", 3.0),
            cell("d", "A", "RCM", 1.5),
        ];
        let r = rank_counts(&cells, None);
        assert_eq!(r.series, 1);
        let g = r.index_of("Gorder").unwrap();
        let rc = r.index_of("RCM").unwrap();
        let rd = r.index_of("Random").unwrap();
        assert_eq!(r.counts[g], vec![1, 0, 0]);
        assert_eq!(r.counts[rc], vec![0, 1, 0]);
        assert_eq!(r.counts[rd], vec![0, 0, 1]);
        assert_eq!(r.firsts(g), 1);
    }

    #[test]
    fn tie_factor_merges_slow_tail() {
        let cells = vec![
            cell("d", "A", "Gorder", 1.0),
            cell("d", "A", "LDG", 2.0),
            cell("d", "A", "Random", 4.0),
        ];
        let r = rank_counts(&cells, Some(1.5));
        // LDG and Random both cap at 1.5 → tie at rank 1
        let l = r.index_of("LDG").unwrap();
        let rd = r.index_of("Random").unwrap();
        assert_eq!(r.counts[l][1], 1);
        assert_eq!(r.counts[rd][1], 1);
    }

    #[test]
    fn mean_rank_ordering() {
        let cells = vec![
            cell("d1", "A", "X", 1.0),
            cell("d1", "A", "Y", 2.0),
            cell("d2", "A", "X", 2.0),
            cell("d2", "A", "Y", 1.0),
        ];
        let r = rank_counts(&cells, None);
        assert_eq!(r.series, 2);
        let x = r.index_of("X").unwrap();
        assert!((r.mean_rank(x) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn incomplete_series_skipped() {
        let cells = vec![
            cell("d", "A", "X", 1.0),
            cell("d", "A", "Y", 2.0),
            cell("d", "B", "X", 1.0), // Y missing for (d, B)
        ];
        let r = rank_counts(&cells, None);
        assert_eq!(r.series, 1);
    }

    #[test]
    fn nan_time_ranks_last_without_panicking() {
        // A timed-out robust cell reports a non-finite time; ranking the
        // grid used to panic inside `partial_cmp().expect("finite
        // times")`, losing the whole sweep.
        let cells = vec![
            cell("d", "A", "Gorder", 1.0),
            cell("d", "A", "RCM", 2.0),
            cell("d", "A", "Random", f64::NAN),
        ];
        let r = rank_counts(&cells, None);
        assert_eq!(r.series, 1);
        let g = r.index_of("Gorder").unwrap();
        let rc = r.index_of("RCM").unwrap();
        let rd = r.index_of("Random").unwrap();
        assert_eq!(r.counts[g], vec![1, 0, 0]);
        assert_eq!(r.counts[rc], vec![0, 1, 0]);
        assert_eq!(r.counts[rd], vec![0, 0, 1], "NaN must rank last");
    }

    #[test]
    fn all_non_finite_times_tie_last() {
        // NaN and ±inf all collapse into one tied last group — and the
        // cap must not swallow them (`NaN.min(cap)` returns `cap`).
        let cells = vec![
            cell("d", "A", "Gorder", 1.0),
            cell("d", "A", "X", f64::INFINITY),
            cell("d", "A", "Y", f64::NAN),
            cell("d", "A", "Z", f64::NEG_INFINITY),
        ];
        let r = rank_counts(&cells, Some(1.5));
        assert_eq!(r.series, 1);
        for name in ["X", "Y", "Z"] {
            let o = r.index_of(name).unwrap();
            assert_eq!(r.counts[o], vec![0, 1, 0, 0], "{name} must tie at rank 1");
        }
        assert_eq!(r.firsts(r.index_of("Gorder").unwrap()), 1);
    }

    #[test]
    fn missing_gorder_skipped_when_capped() {
        // A filtered grid (e.g. `--orderings Random,RCM`) has no Gorder
        // anchor anywhere; with a cap requested, every series used to be
        // silently ranked *uncapped* — now each is skipped and counted.
        let cells = vec![
            cell("d1", "A", "Random", 1.0),
            cell("d1", "A", "RCM", 2.0),
            cell("d2", "A", "Random", 4.0),
            cell("d2", "A", "RCM", 3.0),
        ];
        let r = rank_counts(&cells, Some(1.5));
        assert_eq!(r.series, 0);
        assert_eq!(r.skipped_no_gorder, 2);
        let total: u32 = r.counts.iter().flatten().sum();
        assert_eq!(total, 0, "skipped series must contribute no counts");
    }

    #[test]
    fn missing_gorder_ranks_normally_uncapped() {
        // With no tie factor there is nothing to anchor, so series
        // without Gorder rank as usual (the documented fallback).
        let cells = vec![cell("d", "A", "Random", 2.0), cell("d", "A", "RCM", 1.0)];
        let r = rank_counts(&cells, None);
        assert_eq!(r.series, 1);
        assert_eq!(r.skipped_no_gorder, 0);
        assert_eq!(r.firsts(r.index_of("RCM").unwrap()), 1);
    }

    #[test]
    fn multiple_algorithms_count_separately() {
        let cells = vec![
            cell("d", "A", "X", 1.0),
            cell("d", "A", "Y", 2.0),
            cell("d", "B", "X", 3.0),
            cell("d", "B", "Y", 1.0),
        ];
        let r = rank_counts(&cells, None);
        assert_eq!(r.series, 2);
        let x = r.index_of("X").unwrap();
        assert_eq!(r.counts[x], vec![1, 1]);
    }
}
