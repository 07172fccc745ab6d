//! Property tests for the journal and frame codec.
//!
//! Like `matchkit`, `store` is dependency-free (no dev-deps either), so
//! these use a small deterministic xorshift generator instead of proptest.
//! The central property: **decoding any corruption of a valid journal
//! never panics and recovers exactly the longest valid frame prefix** —
//! that is what makes crash recovery safe against torn writes, bit rot,
//! and truncation at arbitrary byte offsets. The artifact pack and the
//! validator cache sit on the same journal, so the truncation and bit-flip
//! properties reopen damaged copies of those files too.

use std::sync::Arc;
use store::{
    decode_all, ArtifactCache, AuditStore, Backend, ContentHash, Frame, Journal, MemBackend,
    StopReason, ValidatorCache, JOURNAL_FILE, PACK_FILE, VALIDATOR_FILE,
};

/// xorshift64* — deterministic, seedable, good enough for fuzz inputs.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn frame(&mut self) -> Frame {
        let len = self.below(200);
        let payload: Vec<u8> = (0..len).map(|_| self.next() as u8).collect();
        Frame {
            kind: self.next() as u16,
            key: self.next(),
            payload,
        }
    }

    fn frames(&mut self, max: usize) -> Vec<Frame> {
        (0..1 + self.below(max)).map(|_| self.frame()).collect()
    }
}

/// An audit store over a pack opened for it, as a one-off run opens one.
fn open_store(backend: &Arc<MemBackend>, resume: bool) -> AuditStore {
    let pack = ArtifactCache::open(backend.clone(), PACK_FILE).unwrap();
    AuditStore::open(backend.clone(), Arc::new(pack), 42, resume).unwrap()
}

fn encode_all(frames: &[Frame]) -> Vec<u8> {
    let mut buf = Vec::new();
    for f in frames {
        buf.extend_from_slice(&f.encode());
    }
    buf
}

/// How a stored file is damaged at a byte offset.
#[derive(Clone, Copy)]
enum Damage {
    /// Truncate the file there.
    Cut,
    /// Flip one bit of the byte there.
    Flip,
}

/// Damage `backend`'s `file` at a random offset and return how many of
/// its frames lie wholly before that offset (those must survive).
fn damage(rng: &mut Rng, backend: &MemBackend, file: &str, how: Damage) -> usize {
    let mut bytes = backend.read(file).unwrap().expect("file exists");
    let frames = decode_all(&bytes).frames;
    let at = match how {
        Damage::Cut => {
            let at = rng.below(bytes.len() + 1);
            bytes.truncate(at);
            at
        }
        Damage::Flip => {
            let at = rng.below(bytes.len());
            bytes[at] ^= 1 << rng.below(8);
            at
        }
    };
    backend.poke(file, bytes);
    let mut end = 0;
    frames
        .iter()
        .take_while(|f| {
            end += f.encoded_len();
            end <= at
        })
        .count()
}

/// A damaged pack reopens without panicking, serves exactly the blobs of
/// its intact prefix — history blobs, read back by a scan, included — and
/// replays a put made after the reopen.
fn damaged_pack_serves_its_intact_prefix(rng: &mut Rng, how: Damage, case: usize) {
    let backend = Arc::new(MemBackend::new());
    let cache = ArtifactCache::open(backend.clone(), PACK_FILE).unwrap();
    let blobs: Vec<(ContentHash, Vec<u8>)> = (0..1 + rng.below(6))
        .map(|i| {
            let blob = (0..rng.below(120)).map(|_| rng.next() as u8).collect();
            (ContentHash::of(format!("{case}/{i}").as_bytes()), blob)
        })
        .collect();
    // Every other blob is a history blob, whose bytes stay on disk.
    for (i, (hash, blob)) in blobs.iter().enumerate() {
        match i % 2 {
            0 => cache.put(*hash, blob).unwrap(),
            _ => cache.put_history(*hash, blob).unwrap(),
        }
    }
    drop(cache);

    let intact = damage(rng, &backend, PACK_FILE, how);
    let cache = ArtifactCache::open(backend.clone(), PACK_FILE).unwrap();
    for (i, (hash, blob)) in blobs.iter().enumerate() {
        let expect = (i < intact).then(|| blob.clone());
        assert_eq!(cache.get(hash), expect, "case {case}: blob {i} of {intact}");
    }
    let later = ContentHash::of(b"put after the reopen");
    cache.put(later, b"later").unwrap();
    drop(cache);
    let cache = ArtifactCache::open(backend, PACK_FILE).unwrap();
    assert_eq!(
        cache.get(&later).as_deref(),
        Some(&b"later"[..]),
        "case {case}"
    );
    assert_eq!(cache.snapshot().entries, intact + 1, "case {case}");
}

/// A damaged validator cache reopens without panicking, serves exactly the
/// entries of its intact prefix (none once its header frame is damaged),
/// and replays a put made after the reopen.
fn damaged_validators_serve_their_intact_prefix(rng: &mut Rng, how: Damage, case: usize) {
    let backend = Arc::new(MemBackend::new());
    let cache = ValidatorCache::open(backend.clone(), 42).unwrap();
    let entries: Vec<(String, Vec<u8>)> = (0..1 + rng.below(6))
        .map(|i| {
            let value = (0..rng.below(120)).map(|_| rng.next() as u8).collect();
            (format!("https://listing/{case}/{i}"), value)
        })
        .collect();
    for (key, value) in &entries {
        cache.put(key, value).unwrap();
    }
    drop(cache);

    // Frame 0 is the identity header; entry i is frame i + 1.
    let intact = damage(rng, &backend, VALIDATOR_FILE, how);
    let cache = ValidatorCache::open(backend.clone(), 42).unwrap();
    for (i, (key, value)) in entries.iter().enumerate() {
        let expect = (i + 1 < intact).then(|| value.clone());
        assert_eq!(cache.get(key), expect, "case {case}: entry {i} of {intact}");
    }
    cache.put("later", b"put after the reopen").unwrap();
    drop(cache);
    let cache = ValidatorCache::open(backend, 42).unwrap();
    assert_eq!(
        cache.get("later").as_deref(),
        Some(&b"put after the reopen"[..]),
        "case {case}"
    );
    assert_eq!(
        cache.stats().entries as usize,
        intact.saturating_sub(1) + 1,
        "case {case}"
    );
}

#[test]
fn arbitrary_frames_round_trip() {
    let mut rng = Rng::new(0xfeed);
    for _ in 0..200 {
        let frames = rng.frames(12);
        let buf = encode_all(&frames);
        let decoded = decode_all(&buf);
        assert_eq!(decoded.frames, frames);
        assert_eq!(decoded.valid_bytes, buf.len());
        assert_eq!(decoded.stop, StopReason::CleanEnd);
    }
}

#[test]
fn truncation_at_every_offset_recovers_longest_valid_prefix() {
    let mut rng = Rng::new(0xbeef);
    for _ in 0..100 {
        let frames = rng.frames(6);
        let buf = encode_all(&frames);
        // Frame boundaries, so a cut maps to an expected prefix length.
        let mut boundaries = vec![0usize];
        for f in &frames {
            boundaries.push(boundaries.last().unwrap() + f.encode().len());
        }
        let cut = rng.below(buf.len() + 1);
        let decoded = decode_all(&buf[..cut]);
        let expect_frames = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        assert_eq!(decoded.frames.len(), expect_frames, "cut at {cut}");
        assert_eq!(decoded.frames[..], frames[..expect_frames]);
        assert_eq!(decoded.valid_bytes, boundaries[expect_frames]);
        if cut == *boundaries.last().unwrap() {
            assert_eq!(decoded.stop, StopReason::CleanEnd);
        } else {
            assert_eq!(decoded.stop, StopReason::Truncated);
        }
    }
    let mut rng = Rng::new(0xcafe);
    for case in 0..100 {
        damaged_pack_serves_its_intact_prefix(&mut rng, Damage::Cut, case);
        damaged_validators_serve_their_intact_prefix(&mut rng, Damage::Cut, case);
    }
}

#[test]
fn bit_flips_at_arbitrary_offsets_never_panic_and_keep_the_prefix() {
    let mut rng = Rng::new(0xc0ffee);
    for case in 0..300 {
        let frames = rng.frames(6);
        let mut buf = encode_all(&frames);
        let mut boundaries = vec![0usize];
        for f in &frames {
            boundaries.push(boundaries.last().unwrap() + f.encode().len());
        }
        let flip_at = rng.below(buf.len());
        buf[flip_at] ^= 1 << rng.below(8);

        // Must not panic, and every frame wholly before the flipped byte
        // must survive verbatim (damage cannot corrupt data behind it).
        let decoded = decode_all(&buf);
        let intact = boundaries
            .iter()
            .filter(|&&b| b > 0 && b <= flip_at)
            .count();
        assert!(
            decoded.frames.len() >= intact,
            "case {case}: flip at {flip_at} lost intact frames ({} < {intact})",
            decoded.frames.len(),
        );
        assert_eq!(decoded.frames[..intact], frames[..intact], "case {case}");
        // The flipped frame itself must never be accepted with wrong bytes:
        // whatever decoded beyond the intact prefix re-encodes to exactly
        // the bytes it claims to occupy.
        assert_eq!(
            encode_all(&decoded.frames).len(),
            decoded.valid_bytes,
            "case {case}"
        );
    }
    let mut rng = Rng::new(0xf1ee);
    for case in 0..300 {
        damaged_pack_serves_its_intact_prefix(&mut rng, Damage::Flip, case);
        damaged_validators_serve_their_intact_prefix(&mut rng, Damage::Flip, case);
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = Rng::new(0xdead);
    for _ in 0..300 {
        let len = rng.below(400);
        let garbage: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let decoded = decode_all(&garbage);
        assert!(decoded.valid_bytes <= garbage.len());
    }
}

#[test]
fn journal_reopen_after_corruption_replays_prefix_and_repairs() {
    let mut rng = Rng::new(0x5eed);
    for case in 0..100 {
        let backend = Arc::new(MemBackend::new());
        let (journal, _) = Journal::open(backend.clone(), JOURNAL_FILE).unwrap();
        let frames = rng.frames(8);
        for f in &frames {
            journal.append(f.kind, f.key, f.payload.clone()).unwrap();
        }
        drop(journal);

        // Corrupt the tail: truncate, or flip a byte, at a random offset.
        let raw = backend.read(JOURNAL_FILE).unwrap().expect("journal exists");
        let mut boundaries = vec![0usize];
        for f in &frames {
            boundaries.push(boundaries.last().unwrap() + f.encode().len());
        }
        let offset = rng.below(raw.len());
        let damaged = if rng.below(2) == 0 {
            raw[..offset].to_vec()
        } else {
            let mut copy = raw.clone();
            copy[offset] ^= 1 << rng.below(8);
            copy
        };
        backend.poke(JOURNAL_FILE, damaged);

        // Reopen: must not panic, must replay a prefix of what was written,
        // and must leave the file decodable end-to-end (repair truncates).
        let (journal, replay) = Journal::open(backend.clone(), JOURNAL_FILE).unwrap();
        let n = replay.frames.len();
        assert!(n <= frames.len(), "case {case}");
        let intact = boundaries.iter().filter(|&&b| b > 0 && b <= offset).count();
        assert!(n >= intact, "case {case}: lost frames before the damage");
        assert_eq!(replay.frames[..intact], frames[..intact], "case {case}");

        // The repaired journal accepts new appends and replays them.
        journal.append(0xabcd, 7, b"post-repair".to_vec()).unwrap();
        drop(journal);
        let (_, replay2) = Journal::open(backend, JOURNAL_FILE).unwrap();
        assert_eq!(replay2.frames.len(), n + 1, "case {case}");
        assert_eq!(replay2.frames[n].kind, 0xabcd, "case {case}");
    }
}

#[test]
fn store_resumes_from_any_corruption_without_panicking() {
    let mut rng = Rng::new(0xa11d);
    for case in 0..100 {
        let backend = Arc::new(MemBackend::new());
        let store = open_store(&backend, false);
        let units = 1 + rng.below(10);
        for key in 0..units as u64 {
            let payload: Vec<u8> = (0..rng.below(64)).map(|_| rng.next() as u8).collect();
            store.record_unit(0x0100, key, payload).unwrap();
        }
        drop(store);

        let raw = backend.read(JOURNAL_FILE).unwrap().expect("journal exists");
        let offset = rng.below(raw.len());
        let damaged = match rng.below(3) {
            0 => raw[..offset].to_vec(),
            1 => {
                let mut copy = raw.clone();
                copy[offset] ^= 0xff;
                copy
            }
            _ => {
                // Torn tail plus garbage: the messiest realistic crash.
                let mut copy = raw[..offset].to_vec();
                copy.extend((0..rng.below(40)).map(|_| rng.next() as u8));
                copy
            }
        };
        backend.poke(JOURNAL_FILE, damaged);

        let store = open_store(&backend, true);
        let recovered = (0..units as u64)
            .filter(|&k| store.lookup_unit(0x0100, k).is_some())
            .count();
        assert!(recovered <= units, "case {case}");
        // Whatever was lost can simply be re-recorded.
        for key in 0..units as u64 {
            if store.lookup_unit(0x0100, key).is_none() {
                store.record_unit(0x0100, key, b"redone".to_vec()).unwrap();
            }
        }
        assert_eq!(
            (0..units as u64)
                .filter(|&k| store.lookup_unit(0x0100, k).is_some())
                .count(),
            units,
            "case {case}"
        );
    }
}
