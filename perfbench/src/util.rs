//! Small helpers: order statistics, directory digests, memory, files.

use epc_journal::hash_hex;
use std::fs;
use std::path::Path;

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0 < q <= 1) of `xs`, plus the number of
/// samples strictly beyond the returned rank.
pub fn percentile(xs: &[f64], q: f64) -> (f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return (f64::NAN, 0);
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// Every regular file under `dir`: relative path → bytes, sorted by path.
pub fn tree(dir: &Path) -> std::io::Result<Vec<(String, Vec<u8>)>> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) -> std::io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(root, &path, out)?;
            } else {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| std::io::Error::other(e.to_string()))?
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push((rel, fs::read(&path)?));
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out)?;
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// SHA-256 over the sorted `path length sha256` listing of `dir`.
pub fn tree_digest(dir: &Path) -> std::io::Result<String> {
    let mut listing = String::new();
    for (rel, bytes) in tree(dir)? {
        listing.push_str(&format!("{rel} {} {}\n", bytes.len(), hash_hex(&bytes)));
    }
    Ok(hash_hex(listing.as_bytes()))
}

/// Summed size of the files under `dir` whose relative path starts with
/// `prefix`, and their count.
pub fn bytes_under(dir: &Path, prefix: &str) -> std::io::Result<(u64, u64)> {
    let files: Vec<_> = tree(dir)?
        .into_iter()
        .filter(|(rel, _)| rel.starts_with(prefix))
        .collect();
    Ok((
        files.iter().map(|(_, b)| b.len() as u64).sum(),
        files.len() as u64,
    ))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets this process's peak resident set size to its current one, so a
/// later [`peak_rss_mb`] covers only what follows. Free heap pages are
/// returned to the system first, so memory a set-up freed does not hide
/// growth after it. Returns whether the kernel accepted the reset (writing
/// `5` to `/proc/self/clear_refs`).
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's malloc_trim only hands free heap pages back to
        // the kernel; it takes no pointers and touches no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Copies the directory tree `from` into `to` (created).
pub fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let path = entry?.path();
        let dest = to.join(path.file_name().unwrap_or_default());
        if path.is_dir() {
            copy_tree(&path, &dest)?;
        } else {
            fs::copy(&path, &dest)?;
        }
    }
    Ok(())
}

/// Removes `dir` if it exists.
pub fn clear_dir(dir: &Path) -> std::io::Result<()> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// SplitMix64: the benchmark's own seeded generator, so request mixes do
/// not depend on any library's RNG.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), (90.0, 10));
        assert_eq!(percentile(&xs, 1.0), (100.0, 0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
