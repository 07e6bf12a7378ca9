//! Workload inputs: synthesis from the seed, the files `indice generate`
//! writes, and loading them back the way `indice run` does.

use crate::trace::Tracer;
use epc_geo::region::RegionHierarchy;
use epc_geo::streetmap::StreetMap;
use epc_journal::write_atomic_path;
use epc_model::{Dataset, Quarantine};
use epc_synth::noise::apply_noise;
use epc_synth::{EpcGenerator, NoiseConfig, SynthConfig, SyntheticCollection};
use std::fs;
use std::path::Path;

/// Generator seed of the collection's buildings for every seed but
/// [`HELD_OUT_SEED`].
const COLLECTION_SEED: u64 = 2024;

/// The held-out seed. It draws the buildings and the injected outliers as
/// well as the data-entry noise, so its pinned output check covers a
/// building set that no other seed uses.
pub const HELD_OUT_SEED: u64 = 31337;

/// A collection of `n` certificates with the default noise rates. For
/// every seed but [`HELD_OUT_SEED`], the buildings and the injected
/// outliers are the same: they set DBSCAN's neighbourhood radius, and with
/// it the cost of the run, which otherwise swings by more than a third
/// between seeds. The data-entry noise that cleaning repairs (street typos
/// and abbreviations, missing or wrong ZIP codes and coordinates) is drawn
/// from `seed`.
pub fn synthesize(n: usize, seed: u64) -> SyntheticCollection {
    let held_out = seed == HELD_OUT_SEED;
    let mut collection = EpcGenerator::new(SynthConfig {
        n_records: n,
        seed: if held_out { seed } else { COLLECTION_SEED },
        ..SynthConfig::default()
    })
    .generate();
    let rates = NoiseConfig::default();
    let outliers = NoiseConfig {
        typo_rate: 0.0,
        abbreviation_rate: 0.0,
        zip_missing_rate: 0.0,
        zip_wrong_rate: 0.0,
        coord_missing_rate: 0.0,
        coord_wrong_rate: 0.0,
        seed: if held_out {
            seed.wrapping_add(1)
        } else {
            rates.seed
        },
        ..rates.clone()
    };
    apply_noise(&mut collection, &outliers);
    let entry_noise = NoiseConfig {
        univariate_outlier_rate: 0.0,
        multivariate_outlier_rate: 0.0,
        seed,
        ..rates
    };
    apply_noise(&mut collection, &entry_noise);
    collection
}

/// Writes `dataset` as CSV to `path` with the atomic write protocol.
pub fn write_csv(path: &Path, dataset: &Dataset) -> Result<(), String> {
    write_atomic_path(path, epc_model::csv::to_csv(dataset).as_bytes())
        .map(|_| ())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Writes `epcs.csv`, `street_map.txt` and `regions.json` into `dir`, as
/// `indice generate` does.
pub fn write_inputs(dir: &Path, collection: &SyntheticCollection) -> Result<(), String> {
    write_csv(&dir.join("epcs.csv"), &collection.dataset)?;
    write_reference(dir, collection)
}

/// Writes only the street map and regions of `collection` into `dir`.
pub fn write_reference(dir: &Path, collection: &SyntheticCollection) -> Result<(), String> {
    let streets = collection.city.street_map.to_text()?;
    write_atomic_path(&dir.join("street_map.txt"), streets.as_bytes())
        .map_err(|e| format!("writing street_map.txt: {e}"))?;
    let regions = serde_json::to_string_pretty(&collection.city.hierarchy)
        .map_err(|e| format!("serializing regions: {e}"))?;
    write_atomic_path(&dir.join("regions.json"), regions.as_bytes())
        .map_err(|e| format!("writing regions.json: {e}"))?;
    Ok(())
}

/// A CSV loaded leniently (unparsable rows quarantined), with its size.
pub struct LoadedCsv {
    /// The parsed records.
    pub dataset: Dataset,
    /// Rows the parser diverted.
    pub quarantine: Quarantine,
    /// Bytes read.
    pub bytes: u64,
}

/// Reads and parses a certificate CSV inside an `epc-model.csv_load` span.
pub fn load_csv(tr: &Tracer, path: &Path) -> Result<LoadedCsv, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut quarantine = Quarantine::new();
    let dataset = tr
        .span("epc-model.csv_load", || {
            epc_model::csv::from_csv_lenient(
                epc_model::schema::standard_epc_schema(),
                &text,
                &mut quarantine,
            )
        })
        .map_err(|e| format!("parsing {}: {e}", path.display()))?;
    Ok(LoadedCsv {
        dataset,
        quarantine,
        bytes: text.len() as u64,
    })
}

/// Street map and region hierarchy, read from `dir`.
pub fn load_reference(dir: &Path) -> Result<(StreetMap, RegionHierarchy), String> {
    let streets = fs::read_to_string(dir.join("street_map.txt"))
        .map_err(|e| format!("reading street_map.txt: {e}"))?;
    let regions = fs::read_to_string(dir.join("regions.json"))
        .map_err(|e| format!("reading regions.json: {e}"))?;
    let hierarchy: RegionHierarchy =
        serde_json::from_str(&regions).map_err(|e| format!("parsing regions.json: {e}"))?;
    Ok((StreetMap::from_text(&streets)?, hierarchy))
}
