//! Torn-write-safe persistence: atomic-rename writes plus a CRC-32
//! text trailer for every artifact the CLI may later resume from.
//!
//! Two failure modes are covered:
//!
//! * **Torn writes** — a crash mid-`write(2)` leaves a partial file.
//!   [`write_atomic`] writes to a same-directory temp file, `fsync`s
//!   it, atomically renames it over the destination, and `fsync`s the
//!   directory, so readers only ever observe the old file or the
//!   complete new one.
//! * **Silent corruption / external truncation** — a complete-looking
//!   file with flipped or missing bytes. Text artifacts carry a final
//!   `#crc32:xxxxxxxx` line over everything before it;
//!   [`verify_trailer`] / [`require_trailer`] recompute and compare,
//!   so `occ resume --from` fails loudly (exit 4) instead of silently
//!   resuming from a damaged snapshot.
//!
//! The trailer line starts with `#` — not valid JSON — so pre-trailer
//! parsers that split on lines must skip it explicitly; the readers in
//! this workspace all strip it via [`verify_trailer`] first.

use std::fs::{self, File};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

pub use occ_sim::checksum::{crc32, Crc32};

/// Prefix of the checksum trailer line appended to text artifacts.
pub const CRC_TRAILER_PREFIX: &str = "#crc32:";

/// Append the `#crc32:xxxxxxxx` trailer line to `body`. The checksum
/// covers every byte of `body` exactly as passed (including its final
/// newline, which callers should ensure is present so the trailer
/// starts a fresh line).
pub fn with_trailer(body: &str) -> String {
    let mut out = String::with_capacity(body.len() + CRC_TRAILER_PREFIX.len() + 9);
    out.push_str(body);
    if !body.is_empty() && !body.ends_with('\n') {
        out.push('\n');
    }
    out.push_str(&trailer_line(crc32(body.as_bytes())));
    out
}

/// The trailer line (with terminating newline) for a given checksum.
pub fn trailer_line(crc: u32) -> String {
    format!("{CRC_TRAILER_PREFIX}{crc:08x}\n")
}

/// Split `text` into (body, trailer-present) and verify the checksum
/// when a trailer is present. Files without a trailer pass through
/// untouched (old artifacts stay readable); files **with** a trailer
/// must match, and a malformed trailer line is itself an error.
pub fn verify_trailer(text: &str) -> Result<(&str, bool), String> {
    // The trailer, when present, is the final line of the file.
    let trimmed = text.strip_suffix('\n').unwrap_or(text);
    let last_start = trimmed.rfind('\n').map_or(0, |i| i + 1);
    let last = &trimmed[last_start..];
    let Some(hex) = last.strip_prefix(CRC_TRAILER_PREFIX) else {
        return Ok((text, false));
    };
    let body = &text[..last_start];
    if hex.len() != 8 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!(
            "malformed checksum trailer {last:?} (want {CRC_TRAILER_PREFIX} + 8 hex digits)"
        ));
    }
    let want = u32::from_str_radix(hex, 16).expect("8 hex digits parse as u32");
    let got = crc32(body.as_bytes());
    if got != want {
        return Err(format!(
            "checksum mismatch: trailer says crc32 {want:08x}, file content hashes to {got:08x} \
             (torn write or corruption)"
        ));
    }
    Ok((body, true))
}

/// Like [`verify_trailer`], but the trailer is mandatory. Used for
/// checkpoints, where a missing trailer means the file was truncated
/// (or produced by something other than this tool) and resuming from
/// it silently would be unsafe.
pub fn require_trailer(text: &str) -> Result<&str, String> {
    match verify_trailer(text)? {
        (body, true) => Ok(body),
        (_, false) => Err(format!(
            "missing checksum trailer (expected a final {CRC_TRAILER_PREFIX}... line); \
             file is truncated or was not written by this tool"
        )),
    }
}

/// Write `bytes` to `path` atomically: same-directory temp file →
/// `fsync` → rename over `path` → `fsync` the directory. A crash at
/// any point leaves either the old file or the complete new one,
/// never a prefix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = AtomicFile::create(path)?;
    f.write_all(bytes)?;
    f.commit()
}

/// A file written in place of `path` and landed atomically: bytes go to
/// the temp file [`tmp_path`]`(path)` as they are written, and
/// [`commit`](Self::commit) `fsync`s it, renames it over `path` and
/// `fsync`s the directory. Dropping it uncommitted (an error, a panic)
/// removes the temp file, so a failed writer leaves neither `path` nor
/// its temp file behind — only a killed process leaves the temp file.
/// Output that is produced as it is computed streams through this
/// instead of being held whole in memory first.
#[derive(Debug)]
pub struct AtomicFile {
    path: std::path::PathBuf,
    tmp: std::path::PathBuf,
    /// `None` once committed.
    file: Option<File>,
}

impl AtomicFile {
    /// Create (or truncate) the temp file for `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        let tmp = tmp_path(path);
        let file = File::create(&tmp)?;
        Ok(AtomicFile {
            path: path.to_path_buf(),
            tmp,
            file: Some(file),
        })
    }

    fn file(&mut self) -> &mut File {
        self.file
            .as_mut()
            .expect("an uncommitted AtomicFile has a file")
    }

    /// Make the written bytes durable and move them to the destination.
    /// On failure the temp file is removed and the destination is
    /// untouched.
    pub fn commit(mut self) -> io::Result<()> {
        let file = self.file.take().expect("commit runs once");
        let synced = file.sync_all();
        drop(file);
        if let Err(e) = synced.and_then(|()| fs::rename(&self.tmp, &self.path)) {
            let _ = fs::remove_file(&self.tmp);
            return Err(e);
        }
        sync_parent_dir(&self.path);
        Ok(())
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file().write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file().flush()
    }
}

impl Seek for AtomicFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.file().seek(pos)
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// [`write_atomic`] with the CRC trailer appended: the standard write
/// path for checkpoints and finished series files.
pub fn write_atomic_with_trailer(path: &Path, body: &str) -> io::Result<()> {
    write_atomic(path, with_trailer(body).as_bytes())
}

/// The temp-file name used by [`AtomicFile`]: `<path>.tmp`, in the
/// same directory so the rename cannot cross filesystems.
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}

/// Best-effort `fsync` of `path`'s parent directory so the rename
/// itself is durable. Failures are ignored: not all platforms allow
/// opening a directory for sync, and the rename is already atomic.
fn sync_parent_dir(path: &Path) {
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// A [`Write`] adapter that folds every written byte into a running
/// CRC-32. Streaming sinks (per-shard series files, `occ soak`
/// series) write through this so the trailer can be appended at the
/// end without re-reading the file.
#[derive(Debug)]
pub struct CrcWriter<W> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> CrcWriter<W> {
    /// Wrap `inner` with a fresh checksum state.
    pub fn new(inner: W) -> Self {
        CrcWriter {
            inner,
            crc: Crc32::new(),
        }
    }

    /// CRC-32 of everything successfully written so far.
    pub fn crc(&self) -> u32 {
        self.crc.value()
    }

    /// Unwrap, returning the inner writer and the final checksum.
    pub fn into_parts(self) -> (W, u32) {
        let crc = self.crc.value();
        (self.inner, crc)
    }

    /// Shared access to the wrapped writer.
    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    /// Exclusive access to the wrapped writer, **bypassing** the
    /// checksum — for appending the trailer line itself, which must
    /// not fold into the CRC it carries.
    pub fn inner_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("occ-atomicio-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn trailer_round_trips() {
        let body = "{\"a\":1}\n{\"b\":2}\n";
        let full = with_trailer(body);
        assert!(full.ends_with('\n'));
        let (stripped, present) = verify_trailer(&full).unwrap();
        assert!(present);
        assert_eq!(stripped, body);
        assert_eq!(require_trailer(&full).unwrap(), body);
    }

    #[test]
    fn missing_trailer_is_accepted_only_when_optional() {
        let body = "{\"a\":1}\n";
        let (stripped, present) = verify_trailer(body).unwrap();
        assert!(!present);
        assert_eq!(stripped, body);
        let err = require_trailer(body).unwrap_err();
        assert!(err.contains("missing checksum trailer"), "{err}");
    }

    #[test]
    fn any_flipped_byte_is_detected() {
        let full = with_trailer("important checkpoint state\nsecond line\n");
        let bytes = full.as_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.to_vec();
            bad[i] ^= 0x01;
            // Some flips break UTF-8; those count as detected too.
            let Ok(text) = std::str::from_utf8(&bad).map(str::to_owned) else {
                continue;
            };
            let err = require_trailer(&text).unwrap_err();
            assert!(
                err.contains("checksum mismatch")
                    || err.contains("malformed checksum trailer")
                    || err.contains("missing checksum trailer"),
                "flip at {i} produced: {err}"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let full = with_trailer("line one\nline two\nline three\n");
        // Every cut except the trailer's own final newline (body and
        // checksum both complete and consistent there) must fail.
        for cut in 1..full.len() - 1 {
            let text = &full[..cut];
            assert!(
                require_trailer(text).is_err(),
                "truncation at {cut} passed verification"
            );
        }
    }

    #[test]
    fn malformed_trailer_is_an_error_not_a_passthrough() {
        for bad in [
            "#crc32:xyz\n",
            "#crc32:1234567\n",
            "#crc32:123456789\n",
            "#crc32:GGGGGGGG\n",
        ] {
            let text = format!("body\n{bad}");
            let err = verify_trailer(&text).unwrap_err();
            assert!(err.contains("malformed"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn write_atomic_round_trips_and_cleans_up() {
        let dir = tdir("roundtrip");
        let path = dir.join("artifact.json");
        write_atomic_with_trailer(&path, "{\"x\":1}\n").unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(require_trailer(&text).unwrap(), "{\"x\":1}\n");
        assert!(!tmp_path(&path).exists(), "temp file must not linger");
        // Overwrite: readers only ever see old-complete or new-complete.
        write_atomic_with_trailer(&path, "{\"x\":2}\n").unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(require_trailer(&text).unwrap(), "{\"x\":2}\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_file_lands_only_on_commit() {
        let dir = tdir("stream");
        let path = dir.join("trace.bin");
        fs::write(&path, b"old").unwrap();
        // Dropped uncommitted: the destination keeps its old bytes and
        // the temp file is gone.
        let mut f = AtomicFile::create(&path).unwrap();
        f.write_all(b"half of the new").unwrap();
        assert!(tmp_path(&path).exists());
        drop(f);
        assert!(
            !tmp_path(&path).exists(),
            "an abandoned temp file must be removed"
        );
        assert_eq!(fs::read(&path).unwrap(), b"old");
        // Committed: the destination holds exactly what was streamed,
        // including a seek back to patch a header.
        let mut f = AtomicFile::create(&path).unwrap();
        f.write_all(b"new....").unwrap();
        f.write_all(b" body").unwrap();
        f.seek(SeekFrom::Start(3)).unwrap();
        f.write_all(b"HDR").unwrap();
        f.commit().unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"newHDR. body");
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_writer_matches_one_shot() {
        let mut w = CrcWriter::new(Vec::new());
        w.write_all(b"hello ").unwrap();
        w.write_all(b"world\n").unwrap();
        let (buf, crc) = w.into_parts();
        assert_eq!(buf, b"hello world\n");
        assert_eq!(crc, crc32(b"hello world\n"));
    }

    #[test]
    fn empty_body_trailer_verifies() {
        let full = with_trailer("");
        let (body, present) = verify_trailer(&full).unwrap();
        assert!(present);
        assert_eq!(body, "");
    }
}
