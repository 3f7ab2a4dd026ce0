//! Durable write-ahead edit log: the standing-violation service's one
//! epoch log ([`ViolationService`](crate::ViolationService)).
//!
//! ## On-disk format
//!
//! A log file is the 8-byte magic `GFDWAL01` followed by checksummed
//! frames, each a plain-bytes record (no serde):
//!
//! ```text
//! ┌──────┬───────────┬───────────────┬─────────────────┬─────────┬────────────┐
//! │ kind │ epoch u64 │ sym_count u32 │ payload_len u32 │ payload │ cksum u64  │
//! │  u8  │    LE     │      LE       │       LE        │  bytes  │     LE     │
//! └──────┴───────────┴───────────────┴─────────────────┴─────────┴────────────┘
//! ```
//!
//! The checksum ([`gfd_util::checksum64`]) covers header **and**
//! payload, so a torn write anywhere in the frame is detected. Frame
//! zero is always a **base snapshot** (`kind = 1`): a
//! [`GraphData`](gfd_graph::GraphData) encoding of the graph at the
//! log's base epoch — the floor recovery replays from. Every later
//! frame is a **delta** (`kind = 2`) holding one compacted
//! [`GraphDelta`] for one epoch, prefixed by the vocabulary names
//! interned since the previous frame; `sym_count` is the total
//! vocabulary size after the frame, so replay validates every symbol
//! against exactly the vocabulary the writer had.
//!
//! ## Durability contract
//!
//! * [`SyncPolicy::EveryEpoch`] fsyncs after every committed epoch: an
//!   epoch acknowledged to a subscriber is on stable storage.
//! * [`SyncPolicy::EveryN`] group-commits: up to `N − 1` trailing
//!   epochs may be lost on a crash (kill-before-fsync), but recovery
//!   still lands on a *consistent* earlier epoch.
//! * [`SyncPolicy::OnDemand`] only fsyncs when the service is asked to
//!   (subscriber demand, shutdown).
//!
//! [`recover`] never trusts a byte: length and checksum mismatches,
//! epoch gaps, unknown kinds, undecodable payloads and deltas that do
//! not apply all **truncate the log at the first faulty frame** — the
//! surviving prefix is replayed onto the base snapshot, the file is cut
//! back to the valid prefix on disk, and the damage is reported (never
//! panicked) through [`RecoveryReport`]. A log whose snapshot frame
//! itself is damaged has no floor to recover from and surfaces as a
//! [`WalError`].
//!
//! ## Replay
//!
//! Recovery builds one graph, not one per epoch. The snapshot payload
//! is decoded in one pass straight into a [`GraphBuilder`]
//! ([`DecodedSnapshot`]), and its symbol table is interned into the
//! caller's vocabulary only after every byte of it validated. Each
//! intact delta frame is then checked against that builder and applied
//! to it in place ([`GraphBuilder::apply_delta`]), and the builder is
//! frozen once after the last frame. Nobody pins the intermediate
//! epochs of a replay, so none is ever built as a snapshot.
//!
//! The writer is the mirror image, in bounded memory. The snapshot
//! frame streams straight from the frozen graph to the file
//! ([`encode_snapshot_chunked`]) through one buffer of about
//! [`SNAPSHOT_CHUNK`] bytes, under a streaming [`Checksum64`]: a first
//! pass of the same writer only counts, since the header holds the
//! payload length and the checksum is seeded with the frame's. Each
//! delta frame is assembled in that buffer, straight behind its header.
//! A payload too long for the header's `u32` length field is an error,
//! never a wrapped length.
//!
//! [`GraphBuilder`]: gfd_graph::GraphBuilder
//! [`GraphBuilder::apply_delta`]: gfd_graph::GraphBuilder::apply_delta

use std::convert::Infallible;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gfd_graph::{
    encode_snapshot_chunked, DecodedSnapshot, Graph, GraphDelta, Vocab, SNAPSHOT_CHUNK,
};
use gfd_util::{checksum64, Checksum64};

/// File magic: identifies the format and its version. Bumping the
/// codec (or [`checksum64`]) bumps the trailing version digits.
pub const MAGIC: [u8; 8] = *b"GFDWAL01";
/// Frame kind: base snapshot (a [`GraphData`](gfd_graph::GraphData)
/// encoding).
pub const KIND_SNAPSHOT: u8 = 1;
/// Frame kind: one epoch's compacted delta (+ new vocabulary names).
pub const KIND_DELTA: u8 = 2;
/// Fixed frame header size: kind, epoch, sym_count, payload_len.
pub const HEADER_LEN: usize = 1 + 8 + 4 + 4;
/// Trailing checksum size.
const CKSUM_LEN: usize = 8;

/// When the writer forces appended frames onto stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every appended epoch (durability before ack).
    EveryEpoch,
    /// Group commit: fsync once every `N` appended epochs (and on
    /// demand). `EveryN(1)` behaves like [`SyncPolicy::EveryEpoch`].
    EveryN(u32),
    /// Only fsync when [`WalWriter::sync`] is called explicitly.
    OnDemand,
}

/// fsyncs the directory holding `path`: a file's data reaching stable
/// storage does not put its *name* there. Directories cannot be opened
/// for syncing off unix, where this is a no-op.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    if cfg!(unix) {
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Errors that end recovery with **no** usable log: I/O failures and
/// damage to the parts recovery cannot truncate around (magic, base
/// snapshot).
#[derive(Debug)]
pub enum WalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The log has no recoverable floor (bad magic, corrupt snapshot
    /// frame) or an append-side invariant was violated.
    Corrupt {
        /// Byte offset of the damage.
        offset: u64,
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt { offset, what } => {
                write!(f, "wal unrecoverable at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// The first faulty frame [`recover`] truncated at: where it started,
/// what was wrong with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameFault {
    /// Byte offset of the frame the fault was detected in.
    pub offset: u64,
    /// The epoch the frame claimed (if its header was readable).
    pub epoch: Option<u64>,
    /// Human-readable description of the fault.
    pub what: String,
}

/// What [`recover`] did: how far it replayed and what it cut away.
/// Every absorbed fault is visible here — the kill-and-recover soak
/// asserts on these counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The epoch recovery landed on (base + replayed deltas).
    pub recovered_epoch: u64,
    /// Delta frames successfully replayed onto the snapshot.
    pub replayed_epochs: u64,
    /// Frames dropped by truncation (best-effort count: frames after
    /// the fault are sized by their own headers where readable, so an
    /// overwritten length field can merge trailing frames into one).
    pub truncated_frames: u64,
    /// Exact bytes cut from the file.
    pub truncated_bytes: u64,
    /// The fault that triggered truncation, if any.
    pub corruption: Option<FrameFault>,
}

/// Location of one intact frame, as reported by [`frame_bounds`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameInfo {
    /// Byte offset of the frame start.
    pub offset: u64,
    /// Total frame length (header + payload + checksum).
    pub len: u64,
    /// The frame's epoch.
    pub epoch: u64,
    /// [`KIND_SNAPSHOT`] or [`KIND_DELTA`].
    pub kind: u8,
}

/// Append side of the log. Writes are buffered by the OS; durability
/// is governed by the [`SyncPolicy`] — the writer deliberately does
/// **not** fsync on drop, so a crash (or a simulated one in the soak)
/// loses exactly the epochs the policy has not yet forced down.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: SyncPolicy,
    /// Last epoch appended (the snapshot's epoch right after create).
    head: u64,
    /// Vocabulary size already persisted; `append` writes the names
    /// interned past this point into the frame.
    syms_written: usize,
    /// Epochs appended since the last fsync.
    unsynced: u32,
    /// File length, and the prefix known to be on stable storage.
    len: u64,
    synced_len: u64,
    synced_epoch: u64,
    /// End of the snapshot frame (== start of the first delta frame).
    base_len: u64,
    /// Scratch buffer: the snapshot's chunks pass through it on
    /// create, delta frames are assembled in it.
    buf: Vec<u8>,
    /// Lifetime counters (snapshot frame included).
    frames: u64,
    fsyncs: u64,
}

impl WalWriter {
    /// Creates (truncating any previous file at `path`) a fresh log
    /// whose floor is a snapshot of `g` at `base_epoch`. The snapshot
    /// frame is always fsynced — a log that exists has a floor — and so
    /// is the parent directory, so a crash right after `create` returns
    /// cannot lose the new file's directory entry.
    ///
    /// The frame streams to the file in chunks, so `create` holds one
    /// chunk of it at a time, whatever the graph's size; the file is
    /// byte for byte `MAGIC` and the frame assembled whole.
    pub fn create(
        path: &Path,
        base_epoch: u64,
        g: &Graph,
        policy: SyncPolicy,
    ) -> Result<WalWriter, WalError> {
        let symbols = g.vocab().snapshot();
        let sym_count = symbols.len() as u32;
        // A chunk plus the one item that carried it past the threshold.
        let mut buf = Vec::with_capacity(2 * SNAPSHOT_CHUNK);
        // The header holds the payload length and the checksum is
        // seeded with the frame's, so the writer runs once to count.
        let mut payload_len = 0;
        let Ok(()) = encode_snapshot_chunked(g, &symbols, &mut buf, |chunk| {
            payload_len += chunk.len();
            Ok::<(), Infallible>(())
        });
        let at = MAGIC.len() as u64;
        let header = frame_header(at, KIND_SNAPSHOT, base_epoch, sym_count, payload_len)?;

        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&MAGIC)?;
        file.write_all(&header)?;
        let mut cksum = Checksum64::new((HEADER_LEN + payload_len) as u64);
        cksum.update(&header);
        let mut streamed = 0;
        encode_snapshot_chunked(g, &symbols, &mut buf, |chunk| {
            streamed += chunk.len();
            cksum.update(chunk);
            file.write_all(chunk)
        })?;
        assert_eq!(
            streamed, payload_len,
            "the snapshot writer wrote a different length than it counted"
        );
        file.write_all(&cksum.finish().to_le_bytes())?;
        file.sync_all()?;
        sync_parent_dir(path)?;

        let len = (MAGIC.len() + HEADER_LEN + payload_len + CKSUM_LEN) as u64;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            policy,
            head: base_epoch,
            syms_written: sym_count as usize,
            unsynced: 0,
            len,
            synced_len: len,
            synced_epoch: base_epoch,
            base_len: len,
            buf,
            frames: 1,
            fsyncs: 1,
        })
    }

    /// Appends one epoch's compacted delta as it is. `vocab` must be the
    /// vocabulary of the snapshot the delta produces (the service's
    /// shared `Vocab`): names interned since the last frame ride along
    /// in the payload so recovery can rebuild interning incrementally.
    pub fn append(
        &mut self,
        epoch: u64,
        delta: &GraphDelta,
        vocab: &Vocab,
    ) -> Result<(), WalError> {
        if epoch != self.head + 1 {
            return Err(WalError::Corrupt {
                offset: self.len,
                what: format!("append of epoch {epoch} onto head {}", self.head),
            });
        }
        // The vocabulary is copied only when it grew since the last frame.
        let grown = (vocab.len() > self.syms_written).then(|| vocab.snapshot());
        let new_syms = grown
            .as_deref()
            .map_or(&[][..], |names| &names[self.syms_written..]);
        let sym_count = self.syms_written + new_syms.len();

        self.buf.clear();
        frame_into(
            &mut self.buf,
            self.len,
            KIND_DELTA,
            epoch,
            sym_count as u32,
            |out| delta.encode_with_symbols(new_syms, out),
        )?;
        self.file.write_all(&self.buf)?;

        self.len += self.buf.len() as u64;
        self.head = epoch;
        self.syms_written = sym_count;
        self.frames += 1;
        self.unsynced += 1;
        match self.policy {
            SyncPolicy::EveryEpoch => self.sync()?,
            SyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            SyncPolicy::OnDemand => {}
        }
        Ok(())
    }

    /// Forces everything appended so far onto stable storage.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_all()?;
        self.synced_len = self.len;
        self.synced_epoch = self.head;
        self.unsynced = 0;
        self.fsyncs += 1;
        Ok(())
    }

    /// Last epoch appended.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Current file length in bytes.
    pub fn bytes(&self) -> u64 {
        self.len
    }

    /// Length of the prefix known to be fsynced — the most a
    /// kill-before-fsync crash can preserve is exactly this.
    pub fn synced_bytes(&self) -> u64 {
        self.synced_len
    }

    /// Last epoch known to be fsynced.
    pub fn synced_epoch(&self) -> u64 {
        self.synced_epoch
    }

    /// End of the base snapshot frame (corrupting bytes before this
    /// point destroys the recovery floor).
    pub fn base_bytes(&self) -> u64 {
        self.base_len
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Frames written over the writer's lifetime (snapshot included).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Log-file fsyncs issued over the writer's lifetime (the one
    /// directory fsync of [`create`](WalWriter::create) is not counted).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// The writer's sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }
}

/// The header of the frame at file offset `at`. A payload longer than
/// the `u32` length field holds is refused: a wrapped length would make
/// recovery drop the frame as torn — for the floor, the whole log.
fn frame_header(
    at: u64,
    kind: u8,
    epoch: u64,
    sym_count: u32,
    payload_len: usize,
) -> Result<[u8; HEADER_LEN], WalError> {
    let len = u32::try_from(payload_len).map_err(|_| WalError::Corrupt {
        offset: at,
        what: format!("a {payload_len}-byte payload overflows the u32 frame length"),
    })?;
    let mut header = [0; HEADER_LEN];
    header[0] = kind;
    header[1..9].copy_from_slice(&epoch.to_le_bytes());
    header[9..13].copy_from_slice(&sym_count.to_le_bytes());
    header[13..].copy_from_slice(&len.to_le_bytes());
    Ok(header)
}

/// Assembles the frame at file offset `at` in `out`: the payload
/// `encode` writes behind room for the header, the header filled in
/// once the payload's length is known, and the trailing checksum over
/// both.
fn frame_into(
    out: &mut Vec<u8>,
    at: u64,
    kind: u8,
    epoch: u64,
    sym_count: u32,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Result<(), WalError> {
    let start = out.len();
    out.resize(start + HEADER_LEN, 0);
    encode(out);
    let payload_len = out.len() - start - HEADER_LEN;
    let header = frame_header(at, kind, epoch, sym_count, payload_len)?;
    out[start..start + HEADER_LEN].copy_from_slice(&header);
    let cksum = checksum64(&out[start..]);
    out.extend_from_slice(&cksum.to_le_bytes());
    Ok(())
}

/// A frame parsed from raw bytes (payload still encoded).
struct RawFrame<'a> {
    kind: u8,
    epoch: u64,
    sym_count: u32,
    payload: &'a [u8],
    /// Total on-disk size of the frame.
    len: usize,
}

/// Parses and checksum-verifies the frame at `pos`. `Err` is a
/// human-readable fault description (the caller attaches offsets).
fn parse_frame(bytes: &[u8], pos: usize) -> Result<RawFrame<'_>, String> {
    let rest = &bytes[pos..];
    if rest.len() < HEADER_LEN {
        return Err(format!("torn header: {} of {HEADER_LEN} bytes", rest.len()));
    }
    let kind = rest[0];
    let epoch = u64::from_le_bytes(rest[1..9].try_into().expect("8 header bytes"));
    let sym_count = u32::from_le_bytes(rest[9..13].try_into().expect("4 header bytes"));
    let payload_len = u32::from_le_bytes(rest[13..17].try_into().expect("4 header bytes")) as usize;
    let total = HEADER_LEN + payload_len + CKSUM_LEN;
    if rest.len() < total {
        return Err(format!(
            "torn frame: {} of {total} bytes (payload_len {payload_len})",
            rest.len()
        ));
    }
    let stored = u64::from_le_bytes(
        rest[HEADER_LEN + payload_len..total]
            .try_into()
            .expect("8 checksum bytes"),
    );
    let actual = checksum64(&rest[..HEADER_LEN + payload_len]);
    if stored != actual {
        return Err(format!(
            "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        ));
    }
    Ok(RawFrame {
        kind,
        epoch,
        sym_count,
        payload: &rest[HEADER_LEN..HEADER_LEN + payload_len],
        len: total,
    })
}

/// Walks the intact frames of the log at `path` (checksum-verified,
/// payloads not decoded) — the crash soak uses this to predict where
/// recovery must land after a simulated crash. Stops at the first
/// fault; errors only if the file cannot be read or lacks the magic.
pub fn frame_bounds(path: &Path) -> Result<Vec<FrameInfo>, WalError> {
    let bytes = std::fs::read(path)?;
    check_magic(&bytes)?;
    let mut frames = Vec::new();
    let mut pos = MAGIC.len();
    while pos < bytes.len() {
        match parse_frame(&bytes, pos) {
            Ok(f) => {
                frames.push(FrameInfo {
                    offset: pos as u64,
                    len: f.len as u64,
                    epoch: f.epoch,
                    kind: f.kind,
                });
                pos += f.len;
            }
            Err(_) => break,
        }
    }
    Ok(frames)
}

fn check_magic(bytes: &[u8]) -> Result<(), WalError> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(WalError::Corrupt {
            offset: 0,
            what: "missing or unknown magic".into(),
        });
    }
    Ok(())
}

/// Best-effort count of the frames inside the truncated suffix: walk
/// by each frame's own claimed length; anything that does not parse as
/// a whole frame counts as one torn frame.
fn count_dropped_frames(bytes: &[u8], mut pos: usize) -> u64 {
    let mut dropped = 0;
    while pos < bytes.len() {
        dropped += 1;
        let rest = &bytes[pos..];
        if rest.len() < HEADER_LEN {
            break;
        }
        let payload_len =
            u32::from_le_bytes(rest[13..17].try_into().expect("4 header bytes")) as usize;
        let total = HEADER_LEN + payload_len + CKSUM_LEN;
        if rest.len() < total {
            break;
        }
        pos += total;
    }
    dropped
}

/// Opens the log at `path`, replays every intact epoch onto the base
/// snapshot, truncates the file at the first faulty frame, and returns
/// the recovered graph (on a fresh vocabulary), a writer positioned at
/// the recovered head, and the [`RecoveryReport`]. Hostile bytes
/// anywhere past the snapshot frame degrade recovery (to an earlier
/// epoch), never panic it.
pub fn recover(
    path: &Path,
    policy: SyncPolicy,
) -> Result<(Graph, WalWriter, RecoveryReport), WalError> {
    recover_in(path, policy, &Vocab::shared())
}

/// [`recover`] into an **existing** vocabulary — the one the caller's
/// rule set was built against, so patterns match the recovered graph
/// by `Arc` identity. Every symbol replayed from the log must land on
/// the index the writer assigned it; a vocabulary whose history
/// diverged from the log's is unrecoverable-with-this-vocabulary (a
/// caller error, not file damage), reported as [`WalError::Corrupt`]
/// **without** truncating the file.
pub fn recover_in(
    path: &Path,
    policy: SyncPolicy,
    vocab: &Arc<Vocab>,
) -> Result<(Graph, WalWriter, RecoveryReport), WalError> {
    let bytes = std::fs::read(path)?;
    check_magic(&bytes)?;

    // Frame zero: the snapshot floor. Damage here is unrecoverable.
    let base = parse_frame(&bytes, MAGIC.len()).map_err(|what| WalError::Corrupt {
        offset: MAGIC.len() as u64,
        what: format!("base snapshot frame: {what}"),
    })?;
    if base.kind != KIND_SNAPSHOT {
        return Err(WalError::Corrupt {
            offset: MAGIC.len() as u64,
            what: format!("first frame has kind {} (want snapshot)", base.kind),
        });
    }
    // Decode validates the whole payload before anything is interned,
    // so a corrupt floor leaves the caller's vocabulary as it was.
    let payload_fault = |e| WalError::Corrupt {
        offset: MAGIC.len() as u64,
        what: format!("base snapshot payload: {e}"),
    };
    let snapshot = DecodedSnapshot::decode(base.payload, vocab).map_err(payload_fault)?;
    if snapshot.symbol_count() as u64 != base.sym_count as u64 {
        return Err(WalError::Corrupt {
            offset: MAGIC.len() as u64,
            what: format!(
                "snapshot sym_count {} disagrees with payload ({} symbols)",
                base.sym_count,
                snapshot.symbol_count()
            ),
        });
    }
    let mut replay = snapshot.intern().map_err(payload_fault)?;

    let mut report = RecoveryReport {
        recovered_epoch: base.epoch,
        ..RecoveryReport::default()
    };
    let base_len = (MAGIC.len() + base.len) as u64;
    let mut pos = base_len as usize;
    let mut head = base.epoch;
    let mut syms = base.sym_count;
    let mut frames = 1u64;

    let mut fault: Option<FrameFault> = None;
    while pos < bytes.len() {
        // Any fault from here on truncates; closures keep the
        // fault-description plumbing in one place.
        let outcome = parse_frame(&bytes, pos).and_then(|f| {
            if f.kind != KIND_DELTA {
                return Err(format!("unexpected frame kind {}", f.kind));
            }
            if f.epoch != head + 1 {
                return Err(format!("epoch gap: frame {} after head {head}", f.epoch));
            }
            let (names, delta) = GraphDelta::decode_with_symbols(f.payload, syms)
                .map_err(|e| format!("payload: {e}"))?;
            if syms as u64 + names.len() as u64 != f.sym_count as u64 {
                return Err(format!(
                    "sym_count {} disagrees with {} + {} new names",
                    f.sym_count,
                    syms,
                    names.len()
                ));
            }
            Ok((f, names, delta))
        });
        let (f, names, delta) = match outcome {
            Ok(v) => v,
            Err(what) => {
                fault = Some(FrameFault {
                    offset: pos as u64,
                    epoch: parse_epoch_if_readable(&bytes, pos),
                    what,
                });
                break;
            }
        };
        // The payload decoded, but it must also *apply*: a frame whose
        // delta disagrees with the replayed graph (stale base, phantom
        // edge, an edge named twice) is as corrupt as a bad checksum.
        // The whole frame is checked before any of it is applied.
        if let Err(e) = delta.check_against(&replay) {
            fault = Some(FrameFault {
                offset: pos as u64,
                epoch: Some(f.epoch),
                what: format!("delta does not apply: {e}"),
            });
            break;
        }
        // The frame is checksum-verified, so if interning its new
        // names does not land on the writer's indices the *supplied
        // vocabulary* diverged from the log's history — a caller
        // error, not file damage: hard error, no truncation.
        for (j, name) in names.iter().enumerate() {
            let sym = vocab.intern(name);
            if sym.0 as usize != syms as usize + j {
                return Err(WalError::Corrupt {
                    offset: pos as u64,
                    what: format!(
                        "symbol {name:?} interned at index {} where the log expects {}",
                        sym.0,
                        syms as usize + j
                    ),
                });
            }
        }
        replay.apply_delta(&delta);
        head = f.epoch;
        syms = f.sym_count;
        frames += 1;
        pos += f.len;
        report.replayed_epochs += 1;
    }
    report.recovered_epoch = head;

    if fault.is_some() || pos < bytes.len() {
        report.truncated_frames = count_dropped_frames(&bytes, pos);
        report.truncated_bytes = (bytes.len() - pos) as u64;
        report.corruption = fault;
    }

    // Cut the file back to the valid prefix so the writer appends onto
    // known-good frames, and force the cut down before trusting it.
    let file = OpenOptions::new().append(true).open(path)?;
    if (pos as u64) < bytes.len() as u64 {
        file.set_len(pos as u64)?;
    }
    file.sync_all()?;

    let writer = WalWriter {
        file,
        path: path.to_path_buf(),
        policy,
        head,
        syms_written: syms as usize,
        unsynced: 0,
        len: pos as u64,
        synced_len: pos as u64,
        synced_epoch: head,
        base_len,
        buf: Vec::new(),
        frames,
        fsyncs: 1,
    };
    Ok((replay.freeze(), writer, report))
}

/// The epoch field of the frame at `pos`, if that many header bytes
/// survive (fault reporting only — the value is unverified).
fn parse_epoch_if_readable(bytes: &[u8], pos: usize) -> Option<u64> {
    let rest = &bytes[pos..];
    if rest.len() < 9 {
        return None;
    }
    Some(u64::from_le_bytes(
        rest[1..9].try_into().expect("8 header bytes"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::graph::same_snapshot;
    use gfd_graph::{encode_snapshot, Edge, GraphBuilder, NodeId, Value};
    use gfd_util::TempDir;

    /// A tiny graph plus a few recorded epochs, including one that
    /// interns a brand-new attribute name after the snapshot.
    fn build_log(path: &Path, policy: SyncPolicy) -> (Graph, Vec<Graph>, WalWriter) {
        let mut b = GraphBuilder::with_fresh_vocab();
        let a = b.add_node_labeled("account");
        let c = b.add_node_labeled("account");
        b.add_edge_labeled(a, c, "follows");
        let base = b.freeze();

        let mut w = WalWriter::create(path, 0, &base, policy).unwrap();
        let mut snapshots = vec![base.edit(|_| {})];
        let mut g = snapshots[0].edit(|_| {});
        for epoch in 1..=5u64 {
            let (next, delta) = g.edit_with_delta(|b| {
                let u = b.add_node_labeled("post");
                b.add_edge_labeled(NodeId(0), u, "authored");
                if epoch == 3 {
                    // A name the snapshot has never seen: exercises
                    // the new-symbol carriage in the frame payload.
                    b.set_attr_named(u, "flagged_late", Value::Bool(true));
                }
            });
            w.append(epoch, &delta, next.vocab()).unwrap();
            snapshots.push(next.edit(|_| {}));
            g = next;
        }
        (base, snapshots, w)
    }

    #[test]
    fn round_trip_replays_to_head() {
        let dir = TempDir::new("gfd-wal-roundtrip").unwrap();
        let path = dir.file("edits.wal");
        let (_, snapshots, w) = build_log(&path, SyncPolicy::EveryEpoch);
        assert_eq!(w.head(), 5);
        assert_eq!(w.frames(), 6);
        drop(w);

        let (g, w2, report) = recover(&path, SyncPolicy::EveryEpoch).unwrap();
        assert_eq!(report.recovered_epoch, 5);
        assert_eq!(report.replayed_epochs, 5);
        assert_eq!(report.truncated_frames, 0);
        assert_eq!(report.truncated_bytes, 0);
        assert!(report.corruption.is_none());
        assert!(same_snapshot(&g, &snapshots[5]).is_ok());
        // The recovered writer can keep appending.
        assert_eq!(w2.head(), 5);
        // The late-interned name survived replay.
        assert!(g.vocab().lookup("flagged_late").is_some());
    }

    /// A log created in a directory that itself was only just created:
    /// `create` must resolve and fsync that parent, and what it wrote
    /// must be recoverable after the writer is gone.
    #[test]
    fn create_in_fresh_nested_directory_recovers() {
        let dir = TempDir::new("gfd-wal-nested").unwrap();
        let nested = dir.path().join("tenant-7").join("logs");
        std::fs::create_dir_all(&nested).unwrap();
        let path = nested.join("edits.wal");
        let (base, _, w) = build_log(&path, SyncPolicy::OnDemand);
        assert_eq!(w.fsyncs(), 1, "the directory sync is not a log fsync");
        drop(w);

        // Nothing after frame 0 was ever fsynced, yet the file is there
        // and (no crash having cut it) replays to the head.
        let (g, _, report) = recover(&path, SyncPolicy::OnDemand).unwrap();
        assert_eq!(report.recovered_epoch, 5);
        assert!(report.corruption.is_none());
        assert_eq!(g.node_count(), base.node_count() + 5);
    }

    #[test]
    fn truncation_oracle_every_prefix_recovers_intact_epochs() {
        let dir = TempDir::new("gfd-wal-truncate").unwrap();
        let path = dir.file("edits.wal");
        let (_, snapshots, w) = build_log(&path, SyncPolicy::EveryEpoch);
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        let frames = frame_bounds(&path).unwrap();
        assert_eq!(frames.len(), 6);
        let snapshot_end = (frames[0].offset + frames[0].len) as usize;

        let step = if std::env::var_os("BENCH_SMOKE").is_some() {
            7
        } else {
            1
        };
        for cut in (0..=bytes.len()).step_by(step) {
            let prefix = dir.file(&format!("prefix-{cut}.wal"));
            std::fs::write(&prefix, &bytes[..cut]).unwrap();
            if cut < snapshot_end {
                // No intact snapshot: no floor, hard error.
                assert!(
                    recover(&prefix, SyncPolicy::OnDemand).is_err(),
                    "cut {cut} (before snapshot end {snapshot_end}) recovered"
                );
                continue;
            }
            let intact = frames
                .iter()
                .skip(1)
                .take_while(|f| (f.offset + f.len) as usize <= cut)
                .count() as u64;
            let (g, _, report) = recover(&prefix, SyncPolicy::OnDemand).unwrap();
            assert_eq!(
                report.recovered_epoch, intact,
                "cut {cut}: wrong recovery epoch"
            );
            assert!(
                same_snapshot(&g, &snapshots[intact as usize]).is_ok(),
                "cut {cut}: recovered graph diverges from epoch {intact}"
            );
            let torn =
                cut > (frames[intact as usize].offset + frames[intact as usize].len) as usize;
            assert_eq!(
                report.corruption.is_some(),
                torn,
                "cut {cut}: torn-tail reporting wrong"
            );
            // Recovery truncated the file: recovering again is clean.
            let (_, _, again) = recover(&prefix, SyncPolicy::OnDemand).unwrap();
            assert!(again.corruption.is_none(), "cut {cut}: re-recovery dirty");
            assert_eq!(again.recovered_epoch, intact);
        }
    }

    #[test]
    fn mid_file_bit_flip_truncates_at_the_flipped_frame() {
        let dir = TempDir::new("gfd-wal-bitflip").unwrap();
        let path = dir.file("edits.wal");
        let (_, snapshots, w) = build_log(&path, SyncPolicy::EveryEpoch);
        drop(w);
        let frames = frame_bounds(&path).unwrap();

        // Flip one bit inside epoch 3's frame.
        let target = frames[3];
        let mut bytes = std::fs::read(&path).unwrap();
        let at = (target.offset + target.len / 2) as usize;
        bytes[at] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let (g, _, report) = recover(&path, SyncPolicy::OnDemand).unwrap();
        assert_eq!(report.recovered_epoch, 2);
        assert_eq!(report.replayed_epochs, 2);
        assert!(same_snapshot(&g, &snapshots[2]).is_ok());
        let fault = report.corruption.expect("flip must be reported");
        assert_eq!(fault.offset, target.offset);
        // Epochs 3..5 dropped.
        assert_eq!(report.truncated_frames, 3);
        assert_eq!(report.truncated_bytes, bytes.len() as u64 - target.offset);
        // The file was cut back on disk.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), target.offset);
    }

    #[test]
    fn group_commit_lags_then_catches_up() {
        let dir = TempDir::new("gfd-wal-group").unwrap();
        let path = dir.file("edits.wal");
        let (_, _, mut w) = build_log(&path, SyncPolicy::EveryN(3));
        // 5 appends under EveryN(3): one group fsync at epoch 3; 4..5
        // are appended but not yet forced down.
        assert_eq!(w.synced_epoch(), 3);
        assert!(w.synced_bytes() < w.bytes());
        let before = w.fsyncs();
        w.sync().unwrap();
        assert_eq!(w.fsyncs(), before + 1);
        assert_eq!(w.synced_epoch(), 5);
        assert_eq!(w.synced_bytes(), w.bytes());
    }

    #[test]
    fn unrecoverable_logs_error_out() {
        let dir = TempDir::new("gfd-wal-unrecoverable").unwrap();

        // Empty file: no magic.
        let empty = dir.file("empty.wal");
        std::fs::write(&empty, b"").unwrap();
        assert!(matches!(
            recover(&empty, SyncPolicy::OnDemand),
            Err(WalError::Corrupt { .. })
        ));

        // Wrong magic.
        let bad = dir.file("bad.wal");
        std::fs::write(&bad, b"NOTAWAL0rest").unwrap();
        assert!(recover(&bad, SyncPolicy::OnDemand).is_err());

        // Valid log with a bit flipped inside the *snapshot* frame:
        // the floor itself is damaged — hard error, not truncation.
        let path = dir.file("floor.wal");
        let (_, _, w) = build_log(&path, SyncPolicy::EveryEpoch);
        let base_end = w.base_bytes();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = (MAGIC.len() as u64 + (base_end - MAGIC.len() as u64) / 2) as usize;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            recover(&path, SyncPolicy::OnDemand),
            Err(WalError::Corrupt { .. })
        ));
    }

    /// A frame whose checksum is valid but whose delta does not apply
    /// as a whole — its first op applies, a later one removes an absent
    /// edge, or one edge is removed twice — is truncated away like a
    /// torn one: recovery lands exactly on the epoch before it, with
    /// none of the frame applied and nothing panicked.
    #[test]
    fn a_frame_that_does_not_apply_is_cut_whole() {
        let dir = TempDir::new("gfd-wal-noapply").unwrap();
        let probe = build_log(&dir.file("probe.wal"), SyncPolicy::OnDemand).1;
        let head = &probe[5];
        let follows = head.vocab().lookup("follows").unwrap();
        let (a, c) = (NodeId(0), NodeId(1));
        assert!(head.has_edge(a, c, follows) && !head.has_edge(c, a, follows));

        let mut absent_removed = GraphDelta::new(head.node_count());
        absent_removed.added_edges.push(Edge {
            src: c,
            dst: a,
            label: follows,
        });
        absent_removed.removed_edges.push(Edge {
            src: c,
            dst: NodeId(2),
            label: follows,
        });
        let mut removed_twice = GraphDelta::new(head.node_count());
        let present = Edge {
            src: a,
            dst: c,
            label: follows,
        };
        removed_twice.removed_edges.extend([present, present]);

        for (name, bad) in [("absent", absent_removed), ("twice", removed_twice)] {
            let path = dir.file(&format!("{name}.wal"));
            let (_, snapshots, mut w) = build_log(&path, SyncPolicy::OnDemand);
            w.append(6, &bad, snapshots[5].vocab()).unwrap();
            let bad_at = frame_bounds(&path).unwrap()[6].offset;
            drop(w);

            let (g, _, report) = recover(&path, SyncPolicy::OnDemand).unwrap();
            assert_eq!(report.recovered_epoch, 5, "{name}");
            assert_eq!(report.replayed_epochs, 5, "{name}");
            assert!(
                same_snapshot(&g, &snapshots[5]).is_ok(),
                "{name}: partly applied"
            );
            let fault = report.corruption.expect("the frame is reported");
            assert_eq!(fault.offset, bad_at, "{name}");
            assert_eq!(fault.epoch, Some(6), "{name}");
            assert!(
                fault.what.contains("delta does not apply"),
                "{name}: {fault:?}"
            );
            assert_eq!(report.truncated_frames, 1, "{name}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), bad_at, "{name}");
        }
    }

    /// A snapshot frame with a valid checksum over a payload that does
    /// not decode, or whose header miscounts its symbols, is no floor:
    /// recovery errors out and has interned nothing into the caller's
    /// vocabulary.
    #[test]
    fn a_corrupt_floor_leaves_the_vocabulary_untouched() {
        let dir = TempDir::new("gfd-wal-floor").unwrap();
        let mut b = GraphBuilder::with_fresh_vocab();
        let a = b.add_node_labeled("account");
        b.set_attr_named(a, "handle", Value::str("fresh"));
        let g = b.freeze();
        let symbols = g.vocab().snapshot();
        let mut payload = Vec::new();
        encode_snapshot(&g, &symbols, &mut payload);
        let sym_count = symbols.len() as u32;

        let trailing = [payload.as_slice(), &[0]].concat();
        let cases = [
            ("trailing byte", trailing, sym_count),
            ("sym_count", payload, sym_count + 1),
        ];
        for (name, payload, sym_count) in cases {
            let path = dir.file("floor.wal");
            let mut bytes = MAGIC.to_vec();
            let at = MAGIC.len() as u64;
            frame_into(&mut bytes, at, KIND_SNAPSHOT, 0, sym_count, |out| {
                out.extend_from_slice(&payload)
            })
            .unwrap();
            std::fs::write(&path, &bytes).unwrap();

            let vocab = Vocab::shared();
            vocab.intern("rule-side name");
            let result = recover_in(&path, SyncPolicy::OnDemand, &vocab);
            assert!(
                matches!(result, Err(WalError::Corrupt { .. })),
                "{name}: {result:?}"
            );
            assert_eq!(vocab.len(), 1, "{name}: the vocabulary grew");
        }
    }

    /// The streamed floor is the frame assembled whole, byte for byte:
    /// for `build_log`'s graph, and for one whose payload spans three
    /// chunks, with a string value across every 64 KiB mark and chunks
    /// that end inside a checksum lane. Both files recover to the graph
    /// they were written from.
    #[test]
    fn create_streams_the_frame_assembled_whole() {
        let dir = TempDir::new("gfd-wal-identity").unwrap();
        let (tiny, _, _) = build_log(&dir.file("tiny-log.wal"), SyncPolicy::OnDemand);
        let mut b = GraphBuilder::with_fresh_vocab();
        let name = b.vocab().intern("name");
        for i in 0..1_200u32 {
            let u = b.add_node_labeled("entity");
            b.set_attr(u, name, Value::str(&"q".repeat(251)));
            if i > 0 {
                b.add_edge_labeled(NodeId(i - 1), u, "next");
            }
        }
        let large = b.freeze();

        for (what, g) in [("tiny", &tiny), ("large", &large)] {
            let symbols = g.vocab().snapshot();
            let mut payload = Vec::new();
            encode_snapshot(g, &symbols, &mut payload);
            if what == "large" {
                assert!(payload.len() >= 3 * SNAPSHOT_CHUNK, "{} B", payload.len());
                for k in 1..=3 {
                    let mark = k * SNAPSHOT_CHUNK;
                    assert_eq!(&payload[mark - 1..=mark], b"qq", "mark {k}");
                }
                let mut chunks = Vec::new();
                let Ok(()) = encode_snapshot_chunked(g, &symbols, &mut Vec::new(), |c| {
                    chunks.push(c.len());
                    Ok::<(), Infallible>(())
                });
                assert!(chunks.len() >= 3, "{chunks:?}");
                assert!(chunks.iter().any(|len| len % 8 != 0), "{chunks:?}");
            }
            let mut expected = MAGIC.to_vec();
            let at = MAGIC.len() as u64;
            frame_into(
                &mut expected,
                at,
                KIND_SNAPSHOT,
                7,
                symbols.len() as u32,
                |out| out.extend_from_slice(&payload),
            )
            .unwrap();

            let path = dir.file(&format!("{what}.wal"));
            let w = WalWriter::create(&path, 7, g, SyncPolicy::OnDemand).unwrap();
            assert_eq!(w.bytes(), expected.len() as u64, "{what}");
            assert_eq!(w.base_bytes(), w.bytes(), "{what}");
            drop(w);
            assert!(
                std::fs::read(&path).unwrap() == expected,
                "{what}: the streamed file differs from the assembled frame"
            );
            let (back, _, report) = recover(&path, SyncPolicy::OnDemand).unwrap();
            assert_eq!(report.recovered_epoch, 7, "{what}");
            assert!(report.corruption.is_none(), "{what}");
            same_snapshot(&back, g).unwrap_or_else(|e| panic!("{what}: {e}"));
        }
    }

    /// A payload past the `u32` length field is an error, not a
    /// wrapped length; the largest that fits is written as is.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn frame_header_refuses_a_payload_past_u32() {
        let too_long = u32::MAX as usize + 1;
        match frame_header(40, KIND_DELTA, 3, 9, too_long) {
            Err(WalError::Corrupt { offset, what }) => {
                assert_eq!(offset, 40);
                assert!(what.contains(&too_long.to_string()), "{what}");
            }
            other => panic!("{other:?}"),
        }
        let header = frame_header(40, KIND_DELTA, 3, 9, u32::MAX as usize).unwrap();
        assert_eq!(header[0], KIND_DELTA);
        assert_eq!(header[1..9], 3u64.to_le_bytes());
        assert_eq!(header[9..13], 9u32.to_le_bytes());
        assert_eq!(header[13..], u32::MAX.to_le_bytes());
    }

    #[test]
    fn append_rejects_epoch_gaps() {
        let dir = TempDir::new("gfd-wal-gap").unwrap();
        let path = dir.file("edits.wal");
        let (_, snapshots, mut w) = build_log(&path, SyncPolicy::OnDemand);
        let g = &snapshots[5];
        let (_, delta) = g.edit_with_delta(|b| {
            b.add_node_labeled("orphan");
        });
        assert!(w.append(9, &delta, g.vocab()).is_err());
        assert!(w.append(6, &delta, g.vocab()).is_ok());
    }
}
