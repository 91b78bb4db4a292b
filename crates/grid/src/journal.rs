//! The resumable shard journal.
//!
//! One JSONL file per shard: workers append a completed point's JSON line
//! as soon as it finishes, so the file is always a prefix of the shard's
//! work. Restarting a shard opens the journal, replays the parseable
//! lines (skipping finished points), and appends from there. A process
//! killed mid-write leaves at most one torn trailing line, which is simply
//! recomputed — [`Journal::open`] and [`Journal::read`] split it off the
//! complete lines and report it so the caller can log it.
//!
//! The journal is line-oriented and append-only on purpose: `O_APPEND`
//! single-`write` appends are atomic enough for one writer per shard
//! file, and the merge step re-validates global coverage anyway
//! ([`crate::merge`]), so even operator error (two hosts accidentally
//! running the same shard) is caught before any figure is rendered.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

/// An append-only JSONL shard journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

/// What [`Journal::open`] or [`Journal::read`] found on disk.
#[derive(Debug)]
pub struct JournalReplay {
    /// Every complete line already journaled, in file order.
    pub lines: Vec<String>,
    /// Whether a torn (unterminated) trailing line was found and ignored.
    pub torn_tail: bool,
}

impl Journal {
    /// Opens (creating if needed) a journal for appending and replays its
    /// existing complete lines.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be read or
    /// created (the parent directory must already exist).
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(Journal, JournalReplay)> {
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let mut contents = String::new();
        file.read_to_string(&mut contents)?;
        let (replay, keep) = split(&contents);
        if replay.torn_tail {
            // The unterminated tail is a kill artifact, not a record:
            // truncate it away so the next append starts on a fresh line
            // instead of gluing onto the fragment.
            file.set_len(keep as u64)?;
        }
        Ok((Journal { file }, replay))
    }

    /// Reads a journal's complete lines without opening it for appending
    /// (so a torn tail is reported but stays on disk).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be read.
    pub fn read(path: impl AsRef<Path>) -> std::io::Result<JournalReplay> {
        Ok(split(&std::fs::read_to_string(path)?).0)
    }

    /// Appends one record line (the line must not contain `\n`) and
    /// flushes it to the OS, so a later kill cannot lose it.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed write.
    pub fn append(&mut self, line: &str) -> std::io::Result<()> {
        debug_assert!(!line.contains('\n'), "journal records are single lines");
        // One write call per record: an O_APPEND write of a small buffer
        // lands contiguously, so concurrent *readers* (merge on a live
        // dir) see only whole or torn-tail lines, never interleaving.
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.file.write_all(buf.as_bytes())?;
        self.file.flush()
    }
}

/// Splits journal contents into its complete lines and an unterminated
/// tail; also returns the byte length of the complete prefix.
fn split(contents: &str) -> (JournalReplay, usize) {
    let keep = contents.rfind('\n').map_or(0, |i| i + 1);
    let lines = contents[..keep].lines().map(str::to_string).collect();
    let torn_tail = keep < contents.len();
    (JournalReplay { lines, torn_tail }, keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A path in a directory of its own; tests run in parallel, so each
    /// removes its own directory with [`clean`].
    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mi6-grid-journal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn clean(path: &Path) {
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn append_then_replay() {
        let path = scratch("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, replay) = Journal::open(&path).unwrap();
            assert!(replay.lines.is_empty() && !replay.torn_tail);
            j.append("{\"a\":1}").unwrap();
            j.append("{\"a\":2}").unwrap();
        }
        let (mut j, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.lines, vec!["{\"a\":1}", "{\"a\":2}"]);
        assert!(!replay.torn_tail);
        // Appending after a replay continues the file.
        j.append("{\"a\":3}").unwrap();
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.lines.len(), 3);
        clean(&path);
    }

    #[test]
    fn torn_tail_is_dropped_and_reported() {
        let path = scratch("torn.jsonl");
        let torn = "{\"a\":1}\n{\"a\":2}\n{\"a\":3,\"tr";
        std::fs::write(&path, torn).unwrap();
        // Reading reports the torn tail and leaves it on disk.
        let replay = Journal::read(&path).unwrap();
        assert_eq!(replay.lines, vec!["{\"a\":1}", "{\"a\":2}"]);
        assert!(replay.torn_tail);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), torn);
        let (mut j, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.lines, vec!["{\"a\":1}", "{\"a\":2}"]);
        assert!(replay.torn_tail);
        // The torn fragment was truncated away, so the recomputed record
        // lands on its own fresh line.
        j.append("{\"a\":3}").unwrap();
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(
            replay.lines,
            vec!["{\"a\":1}", "{\"a\":2}", "{\"a\":3}"],
            "append after torn tail must not glue onto the fragment"
        );
        clean(&path);
    }
}
