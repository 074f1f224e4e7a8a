//! Durable-file primitives for the on-disk artifacts of the workspace
//! (the checkpoint files of `ptim::resilience`).
//!
//! Two invariants matter for files a killed process may leave behind:
//!
//! * **Atomicity** — [`atomic_write`] stages the bytes in a sibling
//!   temporary file and `rename`s it over the destination, so readers
//!   only ever observe the old contents or the complete new contents,
//!   never a truncated mix. (POSIX `rename` within one directory is
//!   atomic; the temp file lives next to the target so the rename never
//!   crosses filesystems.)
//! * **Integrity** — [`fnv1a64`] is the checksum consumers append
//!   to (or derive from) their payloads, so a file corrupted *after* a
//!   complete write (bit rot, manual edits) is still detected at load.

use std::io::Write;
use std::path::Path;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a hash of `bytes` — the workspace's file checksum.
/// Not cryptographic; it guards against truncation and bit corruption,
/// which is all a checkpoint file needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Writes `bytes` to `path` atomically: stage in `<path>.tmp` (same
/// directory), flush, then rename over the destination. A crash at any
/// point leaves either the previous file or the new one — never a
/// partial write — which is what lets checkpoint rotations trust
/// whatever rename completed.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        // Contents must be durable before the rename publishes them,
        // otherwise a crash could expose a complete-looking empty file.
        f.sync_all()?;
    }
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Don't leave the orphan staging file behind on failure.
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_detects_single_bit_flips() {
        let mut data = vec![0u8; 256];
        for (i, b) in data.iter_mut().enumerate() {
            *b = i as u8;
        }
        let h = fnv1a64(&data);
        for i in 0..data.len() {
            data[i] ^= 1;
            assert_ne!(fnv1a64(&data), h, "flip at byte {i} undetected");
            data[i] ^= 1;
        }
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("pwnum_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer contents");
        // No staging file survives a successful write.
        assert!(!dir.join("table.json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
