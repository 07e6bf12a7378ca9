//! Batch scoping for injected faults in incremental ingest.

use std::fmt;

/// Which batches of an incremental-ingest run receive injected record
/// corruption — the batch-scoped analogue of running the whole pipeline
/// under a [`crate::FaultInjector`].
///
/// Parsed from a comma-separated list of 0-based indices and inclusive
/// ranges (`"0,2-4"`), or `"all"`. The chaos suite uses this to poison
/// exactly one batch and prove the damage stays inside that generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchScope {
    /// Corrupt every batch.
    All,
    /// Corrupt only the listed 0-based batch indices (sorted, deduped).
    Only(Vec<usize>),
}

impl BatchScope {
    /// Parses `"all"` or a list like `"0,2-4,7"`.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let raw = raw.trim();
        if raw.eq_ignore_ascii_case("all") {
            return Ok(BatchScope::All);
        }
        let err = |part: &str| {
            format!(
                "invalid batch scope {raw:?}: part {part:?} is not an index or \
                 inclusive range (expected e.g. \"all\" or \"0,2-4\")"
            )
        };
        let mut indices = Vec::new();
        for part in raw.split(',') {
            let part = part.trim();
            if let Some((lo, hi)) = part.split_once('-') {
                let lo: usize = lo.trim().parse().map_err(|_| err(part))?;
                let hi: usize = hi.trim().parse().map_err(|_| err(part))?;
                if lo > hi {
                    return Err(err(part));
                }
                indices.extend(lo..=hi);
            } else {
                indices.push(part.parse().map_err(|_| err(part))?);
            }
        }
        if indices.is_empty() {
            return Err(format!("invalid batch scope {raw:?}: empty"));
        }
        indices.sort_unstable();
        indices.dedup();
        Ok(BatchScope::Only(indices))
    }

    /// `true` when batch `index` should receive injected corruption.
    pub fn applies_to(&self, index: usize) -> bool {
        match self {
            BatchScope::All => true,
            BatchScope::Only(indices) => indices.binary_search(&index).is_ok(),
        }
    }
}

impl fmt::Display for BatchScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchScope::All => write!(f, "all"),
            BatchScope::Only(indices) => {
                let parts: Vec<String> = indices.iter().map(|i| i.to_string()).collect();
                write!(f, "{}", parts.join(","))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_scope_parses_lists_ranges_and_all() {
        assert_eq!(BatchScope::parse("all").unwrap(), BatchScope::All);
        assert_eq!(BatchScope::parse("ALL").unwrap(), BatchScope::All);
        assert_eq!(
            BatchScope::parse("0,2-4,7,2").unwrap(),
            BatchScope::Only(vec![0, 2, 3, 4, 7])
        );
        let scope = BatchScope::parse("1-2").unwrap();
        assert!(!scope.applies_to(0));
        assert!(scope.applies_to(1));
        assert!(scope.applies_to(2));
        assert!(!scope.applies_to(3));
        assert!(BatchScope::All.applies_to(usize::MAX));
        assert_eq!(scope.to_string(), "1,2");
        assert_eq!(BatchScope::All.to_string(), "all");
    }

    #[test]
    fn batch_scope_rejects_malformed() {
        for bad in ["", "x", "1,", "3-1", "1-x", ","] {
            assert!(BatchScope::parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
