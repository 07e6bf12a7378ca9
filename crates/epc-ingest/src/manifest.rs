//! The generation manifest (`generations.manifest.jsonl`).
//!
//! The manifest is an [`epc_journal::Journal<GenerationEntry>`]: one JSON
//! line per sealed generation, appended and fsync'd *after* the
//! generation's checkpoint deltas and the rebuilt `current/` artifacts are
//! durable, with the journal's torn-tail policy (truncate at the first
//! unparsable line and report it). A resuming ingest loads it and checks
//! the sealed prefix with [`crate::validate_chain`] before folding any
//! delta.
//!
//! [`GenerationEntry`]: crate::GenerationEntry

/// File name of the generation manifest inside an ingest run directory.
pub const GENERATIONS_FILE: &str = "generations.manifest.jsonl";

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::generation::{validate_chain, GenerationEntry, GenerationOutcome, GENESIS};
    use epc_journal::Journal;
    use std::collections::BTreeMap;
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "epc-ingest-manifest-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn entry(seq: usize, parent: &str) -> GenerationEntry {
        GenerationEntry {
            seq,
            batch: format!("b{seq}.csv"),
            batch_hash: format!("bh{seq}"),
            config_fingerprint: "cfg".into(),
            cumulative_input_hash: format!("cum{seq}"),
            parent: parent.to_owned(),
            outcome: GenerationOutcome::Complete,
            reasons: Vec::new(),
            recompute: "exact".into(),
            records_in: 10,
            records_kept: 9,
            quarantined: 1,
            faults: BTreeMap::new(),
            artifacts_written: 2,
            artifacts_carried: 0,
            checkpoints: Vec::new(),
            current: Vec::new(),
        }
    }

    fn manifest(dir: &Path) -> Journal<GenerationEntry> {
        Journal::open(dir, GENERATIONS_FILE)
    }

    fn seal(m: &Journal<GenerationEntry>, n: usize) -> Vec<GenerationEntry> {
        let mut parent = GENESIS.to_owned();
        let mut out = Vec::new();
        for seq in 0..n {
            let e = entry(seq, &parent);
            m.append(&e).unwrap();
            parent = e.chain_hash();
            out.push(e);
        }
        out
    }

    #[test]
    fn append_then_load_round_trips() {
        let dir = temp_dir();
        let m = manifest(&dir);
        let loaded = m.load().unwrap();
        assert!(loaded.entries.is_empty());
        assert!(!loaded.recovered_torn_tail);
        let sealed = seal(&m, 2);
        let loaded = m.load().unwrap();
        assert_eq!(loaded.entries, sealed);
        assert!(!loaded.recovered_torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_and_reported() {
        let dir = temp_dir();
        let m = manifest(&dir);
        let sealed = seal(&m, 2);
        let text = fs::read_to_string(m.path()).unwrap();
        fs::write(m.path(), &text[..text.len() - 25]).unwrap();
        let loaded = m.load().unwrap();
        assert_eq!(loaded.entries, sealed[..1]);
        assert!(loaded.recovered_torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Load, then check the hash chain — the sequence `ingest` runs before
    /// folding any sealed delta.
    #[test]
    fn load_validated_returns_the_chain_tip() {
        let dir = temp_dir();
        let m = manifest(&dir);
        let loaded = m.load().unwrap();
        assert!(loaded.entries.is_empty());
        assert_eq!(validate_chain(&loaded.entries).unwrap(), GENESIS);
        let sealed = seal(&m, 3);
        let loaded = m.load().unwrap();
        assert_eq!(loaded.entries.len(), 3);
        assert_eq!(
            validate_chain(&loaded.entries).unwrap(),
            sealed[2].chain_hash()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_validated_rejects_a_tampered_prefix() {
        let dir = temp_dir();
        let m = manifest(&dir);
        let mut sealed = seal(&m, 3);
        sealed[1].records_kept = 999; // tamper, then rewrite the file
        m.rewrite(&sealed).unwrap();
        let err = validate_chain(&m.load().unwrap().entries).unwrap_err();
        assert!(err.contains("hash chain"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_truncates_to_prefix_and_manifest_bytes_are_deterministic() {
        let dir_a = temp_dir();
        let dir_b = temp_dir();
        let ma = manifest(&dir_a);
        let mb = manifest(&dir_b);
        let sealed = seal(&ma, 3);
        seal(&mb, 3);
        ma.rewrite(&sealed[..2]).unwrap();
        mb.rewrite(&sealed[..2]).unwrap();
        assert_eq!(
            fs::read(ma.path()).unwrap(),
            fs::read(mb.path()).unwrap(),
            "resumed and uninterrupted manifests are byte-identical"
        );
        assert_eq!(ma.load().unwrap().entries, sealed[..2]);
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }
}
