//! Textual dataset reports: the per-attribute summary table INDICE's
//! setting panel shows ("a setting panel to select one or more distribution
//! visualizations, including the description of the main statistical
//! indices", §2.3).

use epc_model::{ColumnData, Dataset};
use epc_stats::descriptive::NumericSummary;
use epc_stats::freq::categorical_summary;

/// One attribute's summary line.
#[derive(Debug, Clone, PartialEq)]
pub enum AttributeSummary {
    /// Numeric attribute: count/mean/std/quartiles.
    Numeric {
        /// Attribute name.
        name: String,
        /// Missing-value count.
        missing: usize,
        /// The statistics (absent when every value is missing).
        stats: Option<NumericSummary>,
    },
    /// Categorical attribute: count/distinct/mode.
    Categorical {
        /// Attribute name.
        name: String,
        /// Missing-value count.
        missing: usize,
        /// Distinct labels.
        distinct: usize,
        /// The most common label and its count, when any value exists.
        mode: Option<(String, usize)>,
    },
}

impl AttributeSummary {
    /// The attribute name.
    pub fn name(&self) -> &str {
        match self {
            AttributeSummary::Numeric { name, .. } => name,
            AttributeSummary::Categorical { name, .. } => name,
        }
    }
}

/// Summarizes every attribute of the dataset, in schema order. Non-finite
/// numeric values (NaN, ±∞) are counted as missing.
pub fn describe(dataset: &Dataset) -> Vec<AttributeSummary> {
    dataset
        .schema()
        .iter()
        .map(|(id, def)| {
            let column = dataset.column(id).expect("schema and columns aligned");
            let missing = column.missing_count();
            match column.data() {
                ColumnData::Numeric(_) => {
                    // Non-finite values carry no magnitude: they count as
                    // missing and stay out of the statistics.
                    let mut values = dataset.numeric_values(id);
                    let present = values.len();
                    values.retain(|v| v.is_finite());
                    AttributeSummary::Numeric {
                        name: def.name.clone(),
                        missing: missing + (present - values.len()),
                        stats: NumericSummary::from_slice(&values),
                    }
                }
                ColumnData::Categorical(col) => {
                    let labels = col
                        .codes()
                        .iter()
                        .filter_map(|c| c.and_then(|c| col.label(c)));
                    let summary = categorical_summary(labels, 1);
                    AttributeSummary::Categorical {
                        name: def.name.clone(),
                        missing,
                        distinct: summary.as_ref().map(|s| s.distinct).unwrap_or(0),
                        mode: summary.map(|s| (s.mode, s.mode_count)),
                    }
                }
            }
        })
        .collect()
}

/// Renders the summaries as an aligned text table.
pub fn describe_text(dataset: &Dataset) -> String {
    let mut out = format!(
        "{} rows x {} attributes\n{:<28} {:>8} {:>10} {:>12} {:>12} {:>12}\n",
        dataset.n_rows(),
        dataset.n_cols(),
        "attribute",
        "missing",
        "kind",
        "mean/mode",
        "std/distinct",
        "median/top"
    );
    for s in describe(dataset) {
        match s {
            AttributeSummary::Numeric {
                name,
                missing,
                stats,
            } => match stats {
                Some(st) => out.push_str(&format!(
                    "{name:<28} {missing:>8} {:>10} {:>12.3} {:>12.3} {:>12.3}\n",
                    "numeric", st.mean, st.std, st.median
                )),
                None => out.push_str(&format!(
                    "{name:<28} {missing:>8} {:>10} {:>12} {:>12} {:>12}\n",
                    "numeric", "-", "-", "-"
                )),
            },
            AttributeSummary::Categorical {
                name,
                missing,
                distinct,
                mode,
            } => {
                let (mode_label, mode_count) = mode.unwrap_or_else(|| ("-".to_owned(), 0));
                out.push_str(&format!(
                    "{name:<28} {missing:>8} {:>10} {:>12} {distinct:>12} {:>12}\n",
                    "categorical",
                    truncate(&mode_label, 12),
                    mode_count
                ));
            }
        }
    }
    out
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_owned()
    } else {
        s.chars()
            .take(max - 1)
            .chain(std::iter::once('…'))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epc_model::{AttrId, AttributeDef, Schema, Value};
    use std::sync::Arc;

    fn dataset() -> Dataset {
        let schema = Arc::new(
            Schema::new(vec![
                AttributeDef::numeric("eph", "kWh", ""),
                AttributeDef::categorical("class", ""),
            ])
            .unwrap(),
        );
        let mut ds = Dataset::new(schema);
        for (e, c) in [
            (Some(100.0), Some("D")),
            (Some(200.0), Some("D")),
            (None, Some("A")),
            (Some(300.0), None),
        ] {
            let mut r = ds.empty_record();
            r.set(AttrId(0), Value::from(e)).unwrap();
            r.set(AttrId(1), c.map(Value::cat).unwrap_or(Value::Missing))
                .unwrap();
            ds.push_record(r).unwrap();
        }
        ds
    }

    #[test]
    fn describe_covers_every_attribute() {
        let summaries = describe(&dataset());
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].name(), "eph");
        assert_eq!(summaries[1].name(), "class");
    }

    #[test]
    fn numeric_summary_values() {
        let summaries = describe(&dataset());
        match &summaries[0] {
            AttributeSummary::Numeric { missing, stats, .. } => {
                assert_eq!(*missing, 1);
                let st = stats.as_ref().unwrap();
                assert_eq!(st.count, 3);
                assert_eq!(st.mean, 200.0);
                assert_eq!(st.median, 200.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn categorical_summary_values() {
        let summaries = describe(&dataset());
        match &summaries[1] {
            AttributeSummary::Categorical {
                missing,
                distinct,
                mode,
                ..
            } => {
                assert_eq!(*missing, 1);
                assert_eq!(*distinct, 2);
                assert_eq!(mode.as_ref().unwrap(), &("D".to_owned(), 2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn text_table_is_renderable() {
        let text = describe_text(&dataset());
        assert!(text.contains("4 rows x 2 attributes"));
        assert!(text.contains("eph"));
        assert!(text.contains("categorical"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn non_finite_values_count_as_missing() {
        let schema = Arc::new(Schema::new(vec![AttributeDef::numeric("x", "", "")]).unwrap());
        let mut ds = Dataset::new(schema);
        for x in [
            Some(1.0),
            Some(f64::NAN),
            Some(3.0),
            Some(f64::INFINITY),
            None,
        ] {
            let mut r = ds.empty_record();
            r.set(AttrId(0), Value::from(x)).unwrap();
            ds.push_record(r).unwrap();
        }
        match &describe(&ds)[0] {
            AttributeSummary::Numeric { missing, stats, .. } => {
                assert_eq!(*missing, 3, "NaN, +inf and the empty cell");
                let st = stats.as_ref().unwrap();
                assert_eq!(st.count, 2);
                assert_eq!(st.mean, 2.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(describe_text(&ds).contains("5 rows x 1 attributes"));
    }

    #[test]
    fn empty_dataset_reports_dashes() {
        let schema = Arc::new(Schema::new(vec![AttributeDef::numeric("x", "", "")]).unwrap());
        let ds = Dataset::new(schema);
        let text = describe_text(&ds);
        assert!(text.contains("0 rows"));
    }
}
