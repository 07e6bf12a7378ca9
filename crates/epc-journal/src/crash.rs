//! Injected crash points for durability testing.
//!
//! Every journaled surface commits one unit at a time — a durable run one
//! stage, an ingest run one batch generation, the fleet coordinator one
//! city — and every commit has the same places a process can die. One
//! [`Crash<K>`] names them all; only the key `K` differs: a stage name
//! (CLI `--crash-at`), a 0-based batch index (`--crash-at-batch`) or a
//! 0-based city index (`--crash-at-city`).
//!
//! Crash points are deterministic: a spec is parsed from a `key:point`
//! string and fires at the keyed unit's commit, independent of thread
//! count or timing. The runner honours it by returning a crash error at
//! exactly that point, so tests and `ci.sh` exercise resume-after-crash
//! without killing the process.

use std::fmt;
use std::str::FromStr;

/// Where in one commit an injected crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die before the unit commits anything: no checkpoint files, no
    /// journal line. Resume must redo the unit from scratch.
    Before,
    /// Die immediately after the unit's journal line is durable. Resume
    /// must skip the unit entirely.
    After,
    /// Die mid-commit: the unit's first checkpoint file is truncated to
    /// half its length, but the journal line records the full content
    /// hash. Resume must detect the mismatch and redo the unit.
    Torn,
}

impl CrashPoint {
    /// Short label (`before`, `after`, `torn`).
    pub fn as_str(self) -> &'static str {
        match self {
            CrashPoint::Before => "before",
            CrashPoint::After => "after",
            CrashPoint::Torn => "torn",
        }
    }
}

/// An injected crash: the commit of unit `at` dies at `point`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crash<K> {
    /// The unit whose commit dies (stage name, batch or city index).
    pub at: K,
    /// Where in that commit.
    pub point: CrashPoint,
}

/// How one crash flag is spelled: the words its parse errors use, and
/// whether it accepts `torn`.
#[derive(Debug, Clone, Copy)]
pub struct CrashGrammar {
    /// What a parse error calls the spec (`crash spec`, ...).
    pub spec: &'static str,
    /// The key's placeholder in the expected form (`stage`, ...).
    pub key: &'static str,
    /// Whether `torn` is a valid point.
    pub torn: bool,
    /// A valid spec, quoted in parse errors.
    pub example: &'static str,
}

/// `--crash-at`: a durable run's stage commit.
pub const STAGE_CRASH: CrashGrammar = CrashGrammar {
    spec: "crash spec",
    key: "stage",
    torn: true,
    example: "analytics:before",
};

/// `--crash-at-batch`: an ingest run's batch generation commit.
pub const BATCH_CRASH: CrashGrammar = CrashGrammar {
    spec: "ingest crash spec",
    key: "batch",
    torn: true,
    example: "1:after",
};

/// `--crash-at-city`: a fleet coordinator's city commit. The coordinator
/// writes no checkpoint of its own, so it has nothing to tear.
pub const CITY_CRASH: CrashGrammar = CrashGrammar {
    spec: "fleet crash spec",
    key: "city",
    torn: false,
    example: "1:after",
};

impl<K: FromStr> Crash<K> {
    /// Parses `<key>:<point>` under `grammar`. Both sides are trimmed; the
    /// key must be non-empty and parse as `K`.
    pub fn parse(raw: &str, grammar: &CrashGrammar) -> Result<Self, String> {
        let points = if grammar.torn {
            "before|after|torn"
        } else {
            "before|after"
        };
        let err = || {
            format!(
                "invalid {} {raw:?}: expected <{}>:<{points}>, e.g. {:?}",
                grammar.spec, grammar.key, grammar.example
            )
        };
        let (key, point) = raw.split_once(':').ok_or_else(err)?;
        let key = key.trim();
        if key.is_empty() {
            return Err(err());
        }
        let at = key.parse().map_err(|_| err())?;
        let point = match point.trim() {
            "before" => CrashPoint::Before,
            "after" => CrashPoint::After,
            "torn" if grammar.torn => CrashPoint::Torn,
            _ => return Err(err()),
        };
        Ok(Crash { at, point })
    }
}

impl<K> Crash<K> {
    /// Where the commit of `unit` dies, when this crash targets it.
    pub fn point_for<Q: ?Sized>(&self, unit: &Q) -> Option<CrashPoint>
    where
        K: PartialEq<Q>,
    {
        (self.at == *unit).then_some(self.point)
    }
}

impl<K: fmt::Display> fmt::Display for Crash<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.at, self.point.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(raw: &str) -> Result<Crash<String>, String> {
        Crash::parse(raw, &STAGE_CRASH)
    }

    fn batch(raw: &str) -> Result<Crash<usize>, String> {
        Crash::parse(raw, &BATCH_CRASH)
    }

    fn city(raw: &str) -> Result<Crash<usize>, String> {
        Crash::parse(raw, &CITY_CRASH)
    }

    #[test]
    fn parses_all_three_points() {
        let at = |at: &str, point| Crash {
            at: at.to_owned(),
            point,
        };
        assert_eq!(
            stage("preprocess:before").unwrap(),
            at("preprocess", CrashPoint::Before)
        );
        assert_eq!(
            stage("analytics:after").unwrap(),
            at("analytics", CrashPoint::After)
        );
        assert_eq!(
            stage(" dashboard : torn ").unwrap(),
            at("dashboard", CrashPoint::Torn)
        );
        // The fleet grammar has no `torn`.
        assert_eq!(
            city("1:before").unwrap(),
            Crash {
                at: 1,
                point: CrashPoint::Before
            }
        );
        assert_eq!(
            city("0:after").unwrap(),
            Crash {
                at: 0,
                point: CrashPoint::After
            }
        );
    }

    #[test]
    fn accessors_and_display_round_trip() {
        let spec = stage("analytics:torn").unwrap();
        assert_eq!(spec.point_for("analytics"), Some(CrashPoint::Torn));
        assert_eq!(spec.point_for("dashboard"), None);
        assert_eq!(spec.point.as_str(), "torn");
        assert_eq!(spec.to_string(), "analytics:torn");
        assert_eq!(stage(&spec.to_string()).unwrap(), spec);

        let spec = city("2:after").unwrap();
        assert_eq!(spec.point_for(&2), Some(CrashPoint::After));
        assert_eq!(spec.point_for(&1), None);
        assert_eq!(spec.to_string(), "2:after");
        assert_eq!(city(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "preprocess",
            ":before",
            "preprocess:",
            "a:during",
            "a:b:c",
        ] {
            let err = stage(bad).unwrap_err();
            assert!(err.contains("invalid crash spec"), "{bad:?}: {err}");
        }
        for bad in ["", "1", "x:after", "1:", "1:during", "-1:after", "1:torn"] {
            let err = city(bad).unwrap_err();
            assert!(err.contains("invalid fleet crash spec"), "{bad:?}: {err}");
            assert!(err.contains("<city>:<before|after>,"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn ingest_crash_parses_all_three_points() {
        let at = |at, point| Crash { at, point };
        assert_eq!(batch("0:before").unwrap(), at(0, CrashPoint::Before));
        assert_eq!(batch("3:after").unwrap(), at(3, CrashPoint::After));
        assert_eq!(batch(" 12 : torn ").unwrap(), at(12, CrashPoint::Torn));
    }

    #[test]
    fn ingest_crash_accessors_and_display_round_trip() {
        let spec = batch("2:torn").unwrap();
        assert_eq!(spec.point_for(&2), Some(CrashPoint::Torn));
        assert_eq!(spec.point_for(&3), None);
        assert_eq!(spec.point.as_str(), "torn");
        assert_eq!(spec.to_string(), "2:torn");
        assert_eq!(batch(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn ingest_crash_rejects_malformed_specs() {
        for bad in ["", "1", ":before", "x:before", "1:", "1:during", "-1:torn"] {
            let err = batch(bad).unwrap_err();
            assert!(err.contains("invalid ingest crash spec"), "{bad:?}: {err}");
        }
    }
}
