//! Durable session journal for the serve daemon (DESIGN.md §6).
//!
//! The journal is a write-ahead log of *inputs*, not of serialized
//! factors. The pipeline is bitwise deterministic (the invariance suites
//! gate this), so replaying the acknowledged `analyze`/`factor`/
//! `refactor` job lines against a fresh engine reconstructs every
//! session exactly — same symbolic structure, same factor bits, same
//! `x_hash` — at the cost of one small framed append per mutating job
//! instead of gigabytes of factor storage.
//!
//! * **Framing** — each record is `[len: u32 LE][crc32: u32 LE][payload]`
//!   after a fixed text header identifying the file and format version.
//!   The CRC (IEEE 802.3, the zlib polynomial) covers the payload.
//! * **Durability** — [`Durability::Strict`] syncs the file before every
//!   append returns, so an acknowledged job is on disk before the client
//!   sees the ack; [`Durability::Relaxed`] batches syncs and accepts
//!   losing the un-synced tail to a crash.
//! * **Recovery** — [`read_journal`] accepts a torn tail (a crash mid
//!   append) by truncating to the last whole record, and stops at the
//!   first CRC mismatch. Neither is a crash: the daemon logs what it
//!   dropped and serves what survived. A file that does not start with
//!   the journal header is *never* truncated or overwritten — that is a
//!   configuration error, reported as such.
//! * **Compaction** — [`Journal::compact_with`] atomically replaces the
//!   log with a caller-gathered equivalent snapshot (per live session:
//!   the last `analyze` line, the last numeric line, and the applied job
//!   ids), keeping the file bounded by live-session state instead of
//!   job history.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The file header every journal starts with. The trailing version digit
/// is the format version; readers reject files with any other header
/// rather than guessing.
pub const JOURNAL_HEADER: &[u8] = b"parsplu-journal/1\n";

/// The journal file name inside `--state-dir`.
pub const JOURNAL_FILE: &str = "sessions.journal";

/// Upper bound on a single record's payload, as a corruption backstop: a
/// garbage length prefix must not allocate unbounded memory. Job lines
/// are already capped far below this by `--max-line-bytes`.
pub const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

/// In relaxed mode, sync after this many un-synced appends.
const RELAXED_SYNC_EVERY: u32 = 32;

/// When an acknowledged append reaches disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// `fsync` before every append returns: an acknowledged mutating job
    /// survives `SIGKILL`.
    #[default]
    Strict,
    /// Batched syncs (every `RELAXED_SYNC_EVERY` = 32 appends and on
    /// drain): faster, but a crash can lose the un-synced tail of
    /// acknowledged work.
    Relaxed,
}

impl Durability {
    /// Parses a `--durability` argument.
    pub fn parse(s: &str) -> Result<Durability, String> {
        match s {
            "strict" => Ok(Durability::Strict),
            "relaxed" => Ok(Durability::Relaxed),
            other => Err(format!(
                "unknown durability `{other}` (expected `strict` or `relaxed`)"
            )),
        }
    }

    /// The stable name (`strict` / `relaxed`).
    pub fn name(self) -> &'static str {
        match self {
            Durability::Strict => "strict",
            Durability::Relaxed => "relaxed",
        }
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — no external dependency.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 of `bytes` (IEEE polynomial, the zlib/`cksum -o 3` variant).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// An acknowledged mutating job line, replayed verbatim through the
    /// serve engine on recovery. `job_id` mirrors the line's inline
    /// `--job-id` token when the client supplied one (the line itself is
    /// authoritative; the field makes the log greppable).
    Job {
        /// The client-supplied idempotency token, if any.
        job_id: Option<String>,
        /// The job line exactly as submitted (trimmed, newline-free).
        line: String,
    },
    /// The applied job-id set retained for one session at compaction
    /// time, so a retry of a pre-compaction job is still recognized as a
    /// duplicate after a crash instead of being re-applied.
    AppliedIds {
        /// Session name (a whitespace-free token by protocol).
        session: String,
        /// Applied ids, oldest first (whitespace-free tokens).
        ids: Vec<String>,
    },
    /// A compaction boundary marker (diagnostic only).
    Compacted {
        /// Live sessions snapshotted by the compaction.
        live_sessions: u64,
    },
}

/// Encodes a record payload (the bytes the CRC covers).
///
/// The encoding is line-free text: a one-byte tag, then space-separated
/// tokens, with the job line as the untokenized remainder (it may contain
/// spaces — and, because records are length-framed, any byte at all).
pub fn encode_record(rec: &Record) -> Vec<u8> {
    match rec {
        Record::Job { job_id, line } => {
            let id = job_id.as_deref().unwrap_or("-");
            format!("J {id} {line}").into_bytes()
        }
        Record::AppliedIds { session, ids } => {
            let mut out = format!("I {session}");
            for id in ids {
                out.push(' ');
                out.push_str(id);
            }
            out.into_bytes()
        }
        Record::Compacted { live_sessions } => format!("C {live_sessions}").into_bytes(),
    }
}

/// Decodes a record payload written by [`encode_record`].
pub fn decode_record(payload: &[u8]) -> Result<Record, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("non-UTF-8 payload: {e}"))?;
    let (tag, rest) = text
        .split_once(' ')
        .ok_or_else(|| format!("record too short: {text:?}"))?;
    match tag {
        "J" => {
            let (id, line) = rest
                .split_once(' ')
                .ok_or_else(|| format!("job record without a line: {text:?}"))?;
            let job_id = if id == "-" {
                None
            } else {
                Some(id.to_string())
            };
            Ok(Record::Job {
                job_id,
                line: line.to_string(),
            })
        }
        "I" => {
            let mut tokens = rest.split(' ');
            let session = tokens
                .next()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| format!("applied-ids record without a session: {text:?}"))?;
            Ok(Record::AppliedIds {
                session: session.to_string(),
                ids: tokens.filter(|t| !t.is_empty()).map(String::from).collect(),
            })
        }
        "C" => Ok(Record::Compacted {
            live_sessions: rest
                .trim()
                .parse()
                .map_err(|_| format!("bad compaction marker: {text:?}"))?,
        }),
        other => Err(format!("unknown record tag {other:?}")),
    }
}

/// Frames a record for the file: `[len][crc][payload]`.
pub fn frame_record(rec: &Record) -> Vec<u8> {
    let payload = encode_record(rec);
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------------------
// Reading / recovery
// ---------------------------------------------------------------------------

/// Why a journal read stopped before the end of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// The file ended inside a record: a crash mid append. Normal for
    /// strict recovery; the torn bytes are truncated away.
    TornTail {
        /// Bytes past the last whole record.
        dropped_bytes: u64,
    },
    /// A record's CRC (or an impossible length prefix) did not match:
    /// on-disk corruption. Reading stops at the damaged record.
    Corrupt {
        /// File offset of the damaged record's frame.
        offset: u64,
        /// Bytes dropped (the damaged record and everything after it).
        dropped_bytes: u64,
    },
}

/// What a journal read recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// Whole, CRC-verified records in file order.
    pub records: Vec<Record>,
    /// Length of the valid prefix (header + whole records); the file is
    /// truncated to this before new appends.
    pub valid_bytes: u64,
    /// Damage found past the valid prefix, if any.
    pub damage: Option<Damage>,
}

/// Reads and verifies a journal file. Missing file ⇒ empty recovery; a
/// torn tail or CRC mismatch drops the damaged suffix (recorded in
/// `damage`) and keeps everything before it; a file with the wrong
/// header is an error — it is not a journal, and is left untouched.
pub fn read_journal(path: &Path) -> Result<Recovered, String> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Recovered {
                records: Vec::new(),
                valid_bytes: 0,
                damage: None,
            })
        }
        Err(e) => return Err(format!("opening {}: {e}", path.display())),
    };
    let mut data = Vec::new();
    file.read_to_end(&mut data)
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    if data.len() < JOURNAL_HEADER.len() || &data[..JOURNAL_HEADER.len()] != JOURNAL_HEADER {
        return Err(format!(
            "{} does not start with the journal header {:?}; refusing to treat it as a journal",
            path.display(),
            String::from_utf8_lossy(JOURNAL_HEADER).trim_end()
        ));
    }
    let mut records = Vec::new();
    let mut pos = JOURNAL_HEADER.len();
    let mut damage = None;
    while pos < data.len() {
        let remaining = data.len() - pos;
        if remaining < 8 {
            damage = Some(Damage::TornTail {
                dropped_bytes: remaining as u64,
            });
            break;
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            damage = Some(Damage::Corrupt {
                offset: pos as u64,
                dropped_bytes: remaining as u64,
            });
            break;
        }
        if remaining - 8 < len as usize {
            damage = Some(Damage::TornTail {
                dropped_bytes: remaining as u64,
            });
            break;
        }
        let payload = &data[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            damage = Some(Damage::Corrupt {
                offset: pos as u64,
                dropped_bytes: remaining as u64,
            });
            break;
        }
        match decode_record(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => {
                // A CRC-valid but undecodable record means a format from
                // the future or a logic bug; stop here rather than guess.
                damage = Some(Damage::Corrupt {
                    offset: pos as u64,
                    dropped_bytes: remaining as u64,
                });
                break;
            }
        }
        pos += 8 + len as usize;
    }
    Ok(Recovered {
        records,
        valid_bytes: pos as u64,
        damage,
    })
}

// ---------------------------------------------------------------------------
// The append/compact writer
// ---------------------------------------------------------------------------

struct Writer {
    file: File,
    unsynced: u32,
}

impl Writer {
    fn sync(&mut self) -> std::io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }
}

/// An open journal: serialized appends with configurable durability,
/// plus atomic compaction. Shared across worker threads behind its own
/// internal lock.
pub struct Journal {
    inner: Mutex<Writer>,
    path: PathBuf,
    durability: Durability,
    bytes: AtomicU64,
    /// Journal size right after the last compaction (or open), the
    /// baseline the growth-triggered compaction policy compares against.
    compact_baseline: AtomicU64,
}

impl Journal {
    /// Opens (or creates) the journal under `state_dir`, recovering the
    /// valid prefix: a torn tail is truncated away (and reported in the
    /// returned [`Recovered::damage`]), a wrong header is an error.
    pub fn open(state_dir: &Path, durability: Durability) -> Result<(Journal, Recovered), String> {
        std::fs::create_dir_all(state_dir)
            .map_err(|e| format!("creating {}: {e}", state_dir.display()))?;
        let path = state_dir.join(JOURNAL_FILE);
        let recovered = read_journal(&path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        let valid = if recovered.valid_bytes == 0 {
            file.set_len(0)
                .and_then(|_| file.write_all(JOURNAL_HEADER))
                .and_then(|_| file.sync_data())
                .map_err(|e| format!("initializing {}: {e}", path.display()))?;
            JOURNAL_HEADER.len() as u64
        } else {
            // Drop the torn/corrupt suffix so new appends start at a
            // record boundary.
            file.set_len(recovered.valid_bytes)
                .map_err(|e| format!("truncating {}: {e}", path.display()))?;
            recovered.valid_bytes
        };
        file.seek(SeekFrom::End(0))
            .map_err(|e| format!("seeking {}: {e}", path.display()))?;
        Ok((
            Journal {
                inner: Mutex::new(Writer { file, unsynced: 0 }),
                path,
                durability,
                bytes: AtomicU64::new(valid),
                compact_baseline: AtomicU64::new(valid),
            },
            recovered,
        ))
    }

    /// The journal's durability mode.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Current file size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// File size right after the last compaction (or open).
    pub fn compact_baseline(&self) -> u64 {
        self.compact_baseline.load(Ordering::Relaxed)
    }

    /// Appends one record. Strict durability syncs before returning —
    /// when this returns `Ok`, the record survives `SIGKILL`.
    pub fn append(&self, rec: &Record) -> std::io::Result<()> {
        let frame = frame_record(rec);
        let mut w = self.inner.lock().unwrap();
        w.file.write_all(&frame)?;
        w.file.flush()?;
        w.unsynced += 1;
        match self.durability {
            Durability::Strict => w.sync()?,
            Durability::Relaxed => {
                if w.unsynced >= RELAXED_SYNC_EVERY {
                    w.sync()?;
                }
            }
        }
        self.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Forces any batched writes to disk (drain/shutdown path for
    /// relaxed durability).
    pub fn sync(&self) -> std::io::Result<()> {
        self.inner.lock().unwrap().sync()
    }

    /// Atomically replaces the journal with `gather()`'s snapshot: tmp
    /// file, sync, rename. The writer lock is held across the gather so
    /// no concurrent append can land in the old file after the snapshot
    /// was taken (it would be silently dropped by the rename). `gather`
    /// returning `None` aborts the compaction (e.g. a session is busy);
    /// returns whether a compaction happened.
    pub fn compact_with(
        &self,
        gather: impl FnOnce() -> Option<Vec<Record>>,
    ) -> std::io::Result<bool> {
        let mut w = self.inner.lock().unwrap();
        let Some(records) = gather() else {
            return Ok(false);
        };
        let tmp = self.path.with_extension("tmp");
        let mut out = File::create(&tmp)?;
        out.write_all(JOURNAL_HEADER)?;
        let mut total = JOURNAL_HEADER.len() as u64;
        for rec in &records {
            let frame = frame_record(rec);
            out.write_all(&frame)?;
            total += frame.len() as u64;
        }
        out.sync_data()?;
        std::fs::rename(&tmp, &self.path)?;
        // Best-effort directory sync so the rename itself is durable.
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_data();
            }
        }
        // The held handle still points at the old inode; swap in the new
        // file positioned at its end.
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        *w = Writer { file, unsynced: 0 };
        self.bytes.store(total, Ordering::Relaxed);
        self.compact_baseline.store(total, Ordering::Relaxed);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "parsplu_persist_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Job {
                job_id: None,
                line: "analyze g /tmp/m.mtx --threads 2".into(),
            },
            Record::Job {
                job_id: Some("c1-7".into()),
                line: "factor g /tmp/m.mtx --job-id c1-7".into(),
            },
            Record::AppliedIds {
                session: "g".into(),
                ids: vec!["c1-7".into(), "c1-8".into()],
            },
            Record::Compacted { live_sessions: 1 },
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_through_encode_decode() {
        for rec in sample_records() {
            let payload = encode_record(&rec);
            assert_eq!(decode_record(&payload).unwrap(), rec);
        }
        // Ids with no whitespace survive; a lone "-" is the None marker.
        let rec = Record::Job {
            job_id: None,
            line: "line with  double  spaces and --flags".into(),
        };
        assert_eq!(decode_record(&encode_record(&rec)).unwrap(), rec);
        assert!(decode_record(b"X something").is_err());
        assert!(decode_record(b"J").is_err());
    }

    #[test]
    fn journal_appends_and_recovers() {
        let dir = tmpdir("basic");
        let (j, rec0) = Journal::open(&dir, Durability::Strict).unwrap();
        assert!(rec0.records.is_empty());
        assert!(rec0.damage.is_none());
        for r in sample_records() {
            j.append(&r).unwrap();
        }
        assert!(j.bytes() > JOURNAL_HEADER.len() as u64);
        drop(j);
        let (j2, rec1) = Journal::open(&dir, Durability::Relaxed).unwrap();
        assert_eq!(rec1.records, sample_records());
        assert!(rec1.damage.is_none());
        drop(j2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = tmpdir("torn");
        let (j, _) = Journal::open(&dir, Durability::Strict).unwrap();
        for r in sample_records() {
            j.append(&r).unwrap();
        }
        let whole = j.bytes();
        drop(j);
        let path = dir.join(JOURNAL_FILE);
        // Simulate a crash mid-append: a partial frame at the tail.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x21, 0x00, 0x00, 0x00, 0xde, 0xad]).unwrap();
        drop(f);
        let (j2, rec) = Journal::open(&dir, Durability::Strict).unwrap();
        assert_eq!(rec.records, sample_records());
        assert_eq!(rec.damage, Some(Damage::TornTail { dropped_bytes: 6 }));
        assert_eq!(rec.valid_bytes, whole);
        // The torn bytes are gone; appending continues cleanly.
        j2.append(&Record::Compacted { live_sessions: 9 }).unwrap();
        drop(j2);
        let rec = read_journal(&path).unwrap();
        assert_eq!(rec.records.len(), sample_records().len() + 1);
        assert!(rec.damage.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_corruption_stops_the_read_at_the_damaged_record() {
        let dir = tmpdir("crc");
        let (j, _) = Journal::open(&dir, Durability::Strict).unwrap();
        for r in sample_records() {
            j.append(&r).unwrap();
        }
        drop(j);
        let path = dir.join(JOURNAL_FILE);
        // Flip one payload byte in the second record.
        let mut data = std::fs::read(&path).unwrap();
        let first_len =
            u32::from_le_bytes(frame_record(&sample_records()[0])[..4].try_into().unwrap());
        let second_payload_at = JOURNAL_HEADER.len() + 8 + first_len as usize + 8 + 2;
        data[second_payload_at] ^= 0x40;
        std::fs::write(&path, &data).unwrap();
        let rec = read_journal(&path).unwrap();
        assert_eq!(rec.records, sample_records()[..1].to_vec());
        assert!(matches!(rec.damage, Some(Damage::Corrupt { .. })));
        // Open truncates the damaged suffix and keeps serving.
        let (j2, _) = Journal::open(&dir, Durability::Strict).unwrap();
        assert_eq!(
            j2.bytes(),
            (JOURNAL_HEADER.len() + 8 + first_len as usize) as u64
        );
        drop(j2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_files_are_refused_not_clobbered() {
        let dir = tmpdir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);
        std::fs::write(&path, b"important user data, definitely not a journal").unwrap();
        assert!(Journal::open(&dir, Durability::Strict).is_err());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"important user data, definitely not a journal"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_replaces_the_log_atomically() {
        let dir = tmpdir("compact");
        let (j, _) = Journal::open(&dir, Durability::Strict).unwrap();
        for _ in 0..50 {
            for r in sample_records() {
                j.append(&r).unwrap();
            }
        }
        let before = j.bytes();
        let snapshot = vec![
            Record::Job {
                job_id: None,
                line: "analyze g /tmp/m.mtx".into(),
            },
            Record::Compacted { live_sessions: 1 },
        ];
        let snap = snapshot.clone();
        assert!(j.compact_with(move || Some(snap)).unwrap());
        assert!(j.bytes() < before);
        assert_eq!(j.compact_baseline(), j.bytes());
        // An aborted gather leaves the journal untouched.
        let kept = j.bytes();
        assert!(!j.compact_with(|| None).unwrap());
        assert_eq!(j.bytes(), kept);
        // Appends after compaction land in the new file.
        j.append(&Record::Compacted { live_sessions: 2 }).unwrap();
        drop(j);
        let rec = read_journal(&dir.join(JOURNAL_FILE)).unwrap();
        let mut expect = snapshot;
        expect.push(Record::Compacted { live_sessions: 2 });
        assert_eq!(rec.records, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
