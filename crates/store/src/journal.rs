//! The frame log under every store file.
//!
//! The pipeline's unit journal, the artifact pack, the validator cache and
//! the epoch chain are all append-only logs of [`Frame`]s, and [`Journal`]
//! is the only code that reads, repairs, appends to or rewrites them.
//! Opening a journal replays the longest valid frame prefix (torn tails and
//! flipped bits are detected by the frame checksums) and, when the file
//! carries damage, truncates it back to that prefix with one atomic rewrite
//! — so the next append lands after known-good bytes instead of burying new
//! frames behind garbage that replay would never reach.
//!
//! A journal may stay open for as long as its owner lives, so a failed
//! append must not leave it writing behind torn bytes either: the failure
//! marks the journal, and its next append first repairs the file exactly
//! as an open would.

use crate::backend::Backend;
use crate::frame::{decode_all, Decoded, Frame, StopReason};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What [`Journal::open`] found in the file.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The recovered frames, in append order.
    pub frames: Vec<Frame>,
    /// Bytes of journal the frames span.
    pub valid_bytes: usize,
    /// True when damage (torn tail or corruption) was found and the file
    /// was truncated back to the valid prefix.
    pub repaired: bool,
}

/// What [`Journal::open_as`] kept of the file.
#[derive(Debug, Clone)]
pub struct Kept {
    /// The resumed log's frames, header first; empty when the file started
    /// over.
    pub frames: Vec<Frame>,
    /// True when a resuming open started over and dropped valid frames of
    /// another identity.
    pub discarded: bool,
}

/// An append-only, checksummed frame log over one backend file.
pub struct Journal {
    backend: Arc<dyn Backend>,
    file: String,
    // Serializes appends from concurrent pipeline workers so frames land
    // contiguously even on backends whose append is not atomic. Holds
    // whether an append failed since the file was last known whole: the
    // file may then end in a torn frame, which the next append repairs.
    append_lock: Mutex<bool>,
    frames_written: AtomicU64,
    frames_replayed: AtomicU64,
}

impl Journal {
    /// Open `file` on `backend`, replaying (and if necessary repairing) any
    /// existing contents.
    pub fn open(backend: Arc<dyn Backend>, file: &str) -> io::Result<(Journal, Replay)> {
        let (decoded, repaired) = read_repaired(&*backend, file)?;
        let journal = Journal::over(backend, file, decoded.frames.len());
        let replay = Replay {
            frames: decoded.frames,
            valid_bytes: decoded.valid_bytes,
            repaired,
        };
        Ok((journal, replay))
    }

    /// Open `file` as the log of one run identity, which a fresh log's
    /// first frame, `header`, carries: its kind and the first eight bytes
    /// of its payload (the caller's fingerprint).
    ///
    /// With `resume`, a file whose first frame has that kind and
    /// fingerprint keeps its frames. Any other file — foreign, empty, or
    /// absent — starts over holding only `header`. Without `resume` the
    /// file starts over without its old contents ever being read.
    pub fn open_as(
        backend: Arc<dyn Backend>,
        file: &str,
        header: Frame,
        resume: bool,
    ) -> io::Result<(Journal, Kept)> {
        let mut discarded = false;
        if resume {
            let (journal, replay) = Journal::open(Arc::clone(&backend), file)?;
            let ours = replay.frames.first().is_some_and(|first| {
                first.kind == header.kind && first.payload.get(..8) == header.payload.get(..8)
            });
            if ours {
                let kept = Kept {
                    frames: replay.frames,
                    discarded,
                };
                return Ok((journal, kept));
            }
            discarded = !replay.frames.is_empty();
        }
        backend.write_atomic(file, &[])?;
        let journal = Journal::over(backend, file, 0);
        journal.append(header.kind, header.key, header.payload)?;
        let kept = Kept {
            frames: Vec::new(),
            discarded,
        };
        Ok((journal, kept))
    }

    /// A handle on `file`, whose `replayed` frames were just read.
    fn over(backend: Arc<dyn Backend>, file: &str, replayed: usize) -> Journal {
        Journal {
            backend,
            file: file.to_string(),
            append_lock: Mutex::new(false),
            frames_written: AtomicU64::new(0),
            frames_replayed: AtomicU64::new(replayed as u64),
        }
    }

    /// Append one frame durably. After a failed append, the next one first
    /// truncates the file to its valid prefix, so no frame lands behind a
    /// torn one.
    pub fn append(&self, kind: u16, key: u64, payload: Vec<u8>) -> io::Result<()> {
        let frame = Frame::new(kind, key, payload);
        let mut failed = self.append_lock.lock().expect("journal append lock");
        if *failed {
            read_repaired(&*self.backend, &self.file)?;
            *failed = false;
        }
        if let Err(e) = self.backend.append(&self.file, &frame.encode()) {
            *failed = true;
            return Err(e);
        }
        self.frames_written.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Atomically replace the whole file with `frames`: after a crash it
    /// holds either its old frames or exactly these, never a mix. Returns
    /// the new file's length in bytes.
    pub fn replace(&self, frames: impl IntoIterator<Item = Frame>) -> io::Result<u64> {
        let mut bytes = Vec::new();
        for frame in frames {
            bytes.extend_from_slice(&frame.encode());
        }
        let mut failed = self.append_lock.lock().expect("journal append lock");
        self.backend.write_atomic(&self.file, &bytes)?;
        *failed = false;
        Ok(bytes.len() as u64)
    }

    /// The file's valid frame prefix, read now and left unrepaired: how an
    /// owner reaches frames it indexes but keeps on disk only.
    pub fn scan(&self) -> io::Result<Decoded> {
        Ok(decode_all(
            &self.backend.read(&self.file)?.unwrap_or_default(),
        ))
    }

    /// Frames appended through this handle (not counting replayed ones).
    pub fn frames_written(&self) -> u64 {
        self.frames_written.load(Ordering::Relaxed)
    }

    /// Frames recovered at open time.
    pub fn frames_replayed(&self) -> u64 {
        self.frames_replayed.load(Ordering::Relaxed)
    }
}

/// Read `file` and decode its valid frame prefix, truncating the file to
/// that prefix when anything follows it. Returns whether it truncated.
fn read_repaired(backend: &dyn Backend, file: &str) -> io::Result<(Decoded, bool)> {
    let bytes = backend.read(file)?.unwrap_or_default();
    let decoded = decode_all(&bytes);
    let repaired = decoded.stop != StopReason::CleanEnd;
    if repaired {
        backend.write_atomic(file, &bytes[..decoded.valid_bytes])?;
    }
    Ok((decoded, repaired))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn mem() -> Arc<MemBackend> {
        Arc::new(MemBackend::new())
    }

    #[test]
    fn append_then_reopen_replays() {
        let backend = mem();
        let (journal, replay) = Journal::open(backend.clone(), "wal").unwrap();
        assert!(replay.frames.is_empty());
        journal.append(1, 10, b"alpha".to_vec()).unwrap();
        journal.append(2, 20, b"beta".to_vec()).unwrap();
        assert_eq!(journal.frames_written(), 2);

        let (journal2, replay2) = Journal::open(backend, "wal").unwrap();
        assert_eq!(replay2.frames.len(), 2);
        assert_eq!(replay2.frames[1].payload, b"beta");
        assert!(!replay2.repaired);
        assert_eq!(journal2.frames_replayed(), 2);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let backend = mem();
        let (journal, _) = Journal::open(backend.clone(), "wal").unwrap();
        journal.append(1, 1, b"keep".to_vec()).unwrap();
        journal.append(1, 2, b"tear me".to_vec()).unwrap();

        // Tear the last frame mid-payload.
        let bytes = backend.read("wal").unwrap().unwrap();
        backend.poke("wal", bytes[..bytes.len() - 3].to_vec());

        let (journal, replay) = Journal::open(backend.clone(), "wal").unwrap();
        assert_eq!(replay.frames.len(), 1);
        assert!(replay.repaired);
        // New appends land after the valid prefix and replay cleanly.
        journal.append(1, 3, b"after repair".to_vec()).unwrap();
        let (_, replay) = Journal::open(backend, "wal").unwrap();
        assert_eq!(replay.frames.len(), 2);
        assert_eq!(replay.frames[1].payload, b"after repair");
        assert!(!replay.repaired);
    }

    /// Logs every call as `(operation, bytes moved)` over a [`MemBackend`].
    #[derive(Default)]
    struct LogBackend {
        inner: MemBackend,
        log: Mutex<Vec<(&'static str, usize)>>,
    }

    impl LogBackend {
        fn take_log(&self) -> Vec<(&'static str, usize)> {
            std::mem::take(&mut self.log.lock().unwrap())
        }
    }

    impl Backend for LogBackend {
        fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
            let bytes = self.inner.read(name)?;
            let len = bytes.as_ref().map_or(0, Vec::len);
            self.log.lock().unwrap().push(("read", len));
            Ok(bytes)
        }
        fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
            self.log.lock().unwrap().push(("write_atomic", bytes.len()));
            self.inner.write_atomic(name, bytes)
        }
        fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
            self.log.lock().unwrap().push(("append", bytes.len()));
            self.inner.append(name, bytes)
        }
        fn remove(&self, name: &str) -> io::Result<()> {
            self.inner.remove(name)
        }
    }

    #[test]
    fn open_as_resumes_only_its_own_identity() {
        let header = |kind: u16, fingerprint: u64| {
            let mut payload = fingerprint.to_le_bytes().to_vec();
            payload.extend_from_slice(b"tail");
            Frame::new(kind, 0, payload)
        };
        let ours = header(7, 42);
        let unit = Frame::new(9, 1, b"unit".to_vec());
        let file =
            |frames: &[&Frame]| -> Vec<u8> { frames.iter().flat_map(|f| f.encode()).collect() };
        let theirs = file(&[&header(7, 41), &unit]);
        let wrong_kind = file(&[&header(8, 42), &unit]);
        let own_log = file(&[&ours, &unit]);
        let fresh = ours.encoded_len();
        // (case, old file, resume, frames kept, discarded, I/O made)
        let start_over = |old: usize| vec![("read", old), ("write_atomic", 0), ("append", fresh)];
        let cases = [
            (
                "same fingerprint",
                own_log.clone(),
                true,
                vec![ours.clone(), unit.clone()],
                false,
                vec![("read", own_log.len())],
            ),
            (
                "foreign fingerprint",
                theirs.clone(),
                true,
                vec![],
                true,
                start_over(theirs.len()),
            ),
            (
                "wrong first kind",
                wrong_kind.clone(),
                true,
                vec![],
                true,
                start_over(wrong_kind.len()),
            ),
            ("empty file", vec![], true, vec![], false, start_over(0)),
            (
                "without resume",
                own_log.clone(),
                false,
                vec![],
                false,
                vec![("write_atomic", 0), ("append", fresh)],
            ),
        ];
        for (case, old, resume, frames, discarded, io) in cases {
            let backend = Arc::new(LogBackend::default());
            backend.inner.poke("wal", old.clone());
            let (journal, kept) =
                Journal::open_as(backend.clone(), "wal", ours.clone(), resume).unwrap();
            assert_eq!(kept.frames, frames, "{case}");
            assert_eq!(kept.discarded, discarded, "{case}");
            assert_eq!(backend.take_log(), io, "{case}");
            let resumed = !frames.is_empty();
            let expect = if resumed { old } else { file(&[&ours]) };
            assert_eq!(
                backend.inner.read("wal").unwrap().unwrap(),
                expect,
                "{case}"
            );
            let counts = (journal.frames_replayed(), journal.frames_written());
            let expect = if resumed { (2, 0) } else { (0, 1) };
            assert_eq!(counts, expect, "{case}");
        }
    }
}
