//! Durable write-ahead edit log: the standing-violation service's one
//! epoch log ([`ViolationService`](crate::ViolationService)).
//!
//! ## On-disk format
//!
//! A log file is the 8-byte magic `GFDWAL03` followed by checksummed
//! frames, each a plain-bytes record (no serde) that holds only what
//! replay cannot infer. Both frame kinds share one variable-length
//! envelope: a kind byte and LEB128 varints, the payload, then a
//! fixed-width checksum. The floor's header holds its epoch; a delta's
//! does not:
//!
//! ```text
//!         ┌──────┬─────────────┬─────────────┬─────────┬───────────┐
//! floor:  │ kind │ epoch       │ payload_len │ payload │ cksum u64 │
//!         │  u8  │ varint ≤ 10 │ varint ≤ 5  │  bytes  │    LE     │
//!         └──────┴─────────────┴─────────────┴─────────┴───────────┘
//!         ┌──────┬─────────────┬─────────┬───────────┐
//! delta:  │ kind │ payload_len │ payload │ cksum u64 │
//!         │  u8  │ varint ≤ 5  │  bytes  │    LE     │
//!         └──────┴─────────────┴─────────┴───────────┘
//! ```
//!
//! A varint holds seven bits a byte, low group first, the high bit set
//! on every byte but the last. It is minimal and fits its field
//! (`epoch` a `u64`, `payload_len` a `u32`), so the floor's header is 3
//! to 16 bytes, a delta's 2 to 6, and each header has one encoding: a
//! longer, padded or overflowing varint is a fault like a bad checksum.
//!
//! A delta's epoch is its position: the floor's epoch plus the frame's
//! index behind it. Every frame's checksum ([`gfd_util::checksum64`])
//! runs over its epoch as 8 little-endian bytes, then the header, then
//! the payload, so a torn write anywhere in the frame is detected, and
//! so is a whole frame moved, dropped or replayed out of place: its
//! position implies another epoch than the one it was written under.
//!
//! Frame zero is always a **base snapshot** (`kind = 1`): the
//! [`encode_snapshot`](gfd_graph::encode_snapshot) record of the graph
//! at the log's base epoch — the floor recovery replays from. Every later
//! frame is a **delta** (`kind = 2`) holding one compacted
//! [`GraphDelta`] for one epoch, with the vocabulary names interned
//! since the previous frame
//! ([`GraphDelta::encode_with_symbols`]). Replay counts the vocabulary —
//! the floor record's symbol table, then each frame's new names — so it
//! validates every symbol against exactly the vocabulary the writer
//! had, and it passes each delta the replayed graph's node count as its
//! base.
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
//! [`recover`] never trusts a byte: length and checksum mismatches
//! (frames out of place among them), unknown kinds, undecodable
//! payloads and deltas that do not apply all **truncate the log at the
//! first faulty frame** — the
//! surviving prefix is replayed onto the base snapshot, the file is cut
//! back to the valid prefix on disk, and the damage is reported (never
//! panicked) through [`RecoveryReport`]. A log whose snapshot frame
//! itself is damaged has no floor to recover from and surfaces as a
//! [`WalError`].
//!
//! ## Replay
//!
//! Recovery builds one graph, not one per epoch, and never holds the
//! floor's bytes whole. The snapshot payload streams from the file in
//! [`SNAPSHOT_CHUNK`] pieces through one buffer, under a streaming
//! [`Checksum64`], and is decoded in one pass straight into a
//! [`GraphBuilder`] ([`DecodedSnapshot::decode_chunked`]); its symbol
//! table is interned into the caller's vocabulary only after every byte
//! of it parsed and the checksum matched. The frames behind the floor
//! are read once, at their length, and each intact delta frame is
//! checked against that builder and applied
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
//! delta frame is assembled in that buffer: the payload is encoded
//! behind room for the longest header, and once its length is known the
//! header is written in front of it and the gap closed, in place.
//! A payload too long for the header's `u32` length field is an error,
//! never a wrapped length.
//!
//! Recovery reads at most the longest header of the floor, then seeks
//! back to where the header ended, so the payload streams from its first
//! byte.
//!
//! [`GraphBuilder`]: gfd_graph::GraphBuilder
//! [`GraphBuilder::apply_delta`]: gfd_graph::GraphBuilder::apply_delta

use std::convert::Infallible;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::Arc;

use gfd_graph::{
    encode_snapshot_chunked, DecodedSnapshot, Graph, GraphDelta, Vocab, SNAPSHOT_CHUNK,
};
use gfd_util::Checksum64;

/// File magic: identifies the format and its version. Bumping the
/// codec (or [`checksum64`](gfd_util::checksum64)) bumps the trailing
/// version digits.
pub const MAGIC: [u8; 8] = *b"GFDWAL03";
/// Frame kind: base snapshot (an
/// [`encode_snapshot`](gfd_graph::encode_snapshot) record).
pub const KIND_SNAPSHOT: u8 = 1;
/// Frame kind: one epoch's compacted delta (+ new vocabulary names).
pub const KIND_DELTA: u8 = 2;
/// Longest frame header, the floor's: the kind byte, then `epoch` (a
/// `u64`) and `payload_len` (a `u32`) as varints of at most 10 and 5
/// bytes.
const MAX_HEADER_LEN: usize = 1 + 10 + 5;
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
    /// The epoch the frame's position implies, if its header was
    /// readable.
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
    /// Length of the frame's header: the kind byte and its varints, 3
    /// to 16 bytes for the floor and 2 to 6 for a delta.
    pub header_len: u64,
    /// The frame's epoch: the floor's as its header holds it, a
    /// delta's as its position implies it (the floor's plus its index).
    pub epoch: u64,
    /// [`KIND_SNAPSHOT`] or [`KIND_DELTA`].
    pub kind: u8,
}

/// Append side of the log. Writes are buffered by the OS; durability
/// is governed by the [`SyncPolicy`] — the writer deliberately does
/// **not** fsync on drop, so a crash (or a simulated one in the soak)
/// loses exactly the epochs the policy has not yet forced down. It is
/// the one count of its frames and fsyncs: a service reports its log's
/// counters from here.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
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
        let header = frame_header(at, KIND_SNAPSHOT, base_epoch, payload_len)?;

        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&MAGIC)?;
        file.write_all(&header)?;
        let mut cksum = keyed_cksum(base_epoch, header.len() + payload_len);
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

        let len = (MAGIC.len() + header.len() + payload_len + CKSUM_LEN) as u64;
        Ok(WalWriter {
            file,
            policy,
            head: base_epoch,
            syms_written: symbols.len(),
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
        self.append_cut(epoch, delta, vocab, None)
    }

    /// [`append`](Self::append), or with `cut = Some(f)` the write a full
    /// disk makes of it: the frame's first `1 + ⌊f · (len − 1)⌋` bytes
    /// (`0 ≤ f < 1`, so at least one byte and never the whole frame)
    /// reach the file, and the append fails with
    /// [`ErrorKind::StorageFull`](std::io::ErrorKind::StorageFull). The
    /// service draws `cut` from its [`FaultPlan`](crate::FaultPlan)
    /// ([`short_write`](crate::FaultPlan::short_write)). Like any failed
    /// append it leaves the writer unfit for another: the service drops
    /// it.
    pub(crate) fn append_cut(
        &mut self,
        epoch: u64,
        delta: &GraphDelta,
        vocab: &Vocab,
        cut: Option<f64>,
    ) -> Result<(), WalError> {
        if epoch != self.head + 1 {
            return Err(WalError::Corrupt {
                offset: self.len,
                what: format!("append of epoch {epoch} onto head {}", self.head),
            });
        }
        // Only the names interned since the last frame are copied, and
        // when there are none nothing is allocated.
        let new_syms = vocab.names_from(self.syms_written);

        self.buf.clear();
        frame_into(&mut self.buf, self.len, KIND_DELTA, epoch, |out| {
            delta.encode_with_symbols(&new_syms, out)
        })?;
        if let Some(f) = cut {
            let written = 1 + (f * (self.buf.len() - 1) as f64) as usize;
            self.file.write_all(&self.buf[..written])?;
            return Err(WalError::Io(std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                format!("short write: {written} of {} frame bytes", self.buf.len()),
            )));
        }
        self.file.write_all(&self.buf)?;

        self.len += self.buf.len() as u64;
        self.head = epoch;
        self.syms_written += new_syms.len();
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

    /// Frames written over the writer's lifetime (snapshot included).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Log-file fsyncs issued over the writer's lifetime (the one
    /// directory fsync of [`create`](WalWriter::create) is not counted).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }
}

/// A frame header as written: the first `len` of its `bytes`.
struct HeaderBytes {
    bytes: [u8; MAX_HEADER_LEN],
    len: usize,
}

impl std::ops::Deref for HeaderBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// The header of the frame at file offset `at`: the kind byte, the
/// floor's `epoch` (a delta's is implied by its position) and
/// `payload_len`, as minimal varints. A payload longer than the `u32`
/// length field holds is refused: a wrapped length would make recovery
/// drop the frame as torn — for the floor, the whole log.
fn frame_header(
    at: u64,
    kind: u8,
    epoch: u64,
    payload_len: usize,
) -> Result<HeaderBytes, WalError> {
    let len = u32::try_from(payload_len).map_err(|_| WalError::Corrupt {
        offset: at,
        what: format!("a {payload_len}-byte payload overflows the u32 frame length"),
    })?;
    let mut header = HeaderBytes {
        bytes: [0; MAX_HEADER_LEN],
        len: 1,
    };
    header.bytes[0] = kind;
    let epoch = (kind == KIND_SNAPSHOT).then_some(epoch);
    for mut value in epoch.into_iter().chain([u64::from(len)]) {
        while value >= 0x80 {
            header.bytes[header.len] = value as u8 | 0x80;
            header.len += 1;
            value >>= 7;
        }
        header.bytes[header.len] = value as u8;
        header.len += 1;
    }
    Ok(header)
}

/// The checksum of a frame of `epoch` whose header and payload are
/// `body_len` bytes, keyed: it runs over the epoch as 8 little-endian
/// bytes before the frame, so a frame read where its position implies
/// another epoch fails it.
fn keyed_cksum(epoch: u64, body_len: usize) -> Checksum64 {
    let mut cksum = Checksum64::new((std::mem::size_of::<u64>() + body_len) as u64);
    cksum.update(&epoch.to_le_bytes());
    cksum
}

/// Assembles the frame of `epoch` at file offset `at` in `out`: the
/// payload `encode` writes behind room for the longest header, the
/// header written in front of the payload once its length is known and
/// the gap before it closed, and the trailing keyed checksum. The gap
/// closes in place, so the frame takes `out` no capacity past what the
/// longest header, the payload and the checksum need.
fn frame_into(
    out: &mut Vec<u8>,
    at: u64,
    kind: u8,
    epoch: u64,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Result<(), WalError> {
    let start = out.len();
    out.resize(start + MAX_HEADER_LEN, 0);
    encode(out);
    let payload_len = out.len() - start - MAX_HEADER_LEN;
    let header = frame_header(at, kind, epoch, payload_len)?;
    let gap = MAX_HEADER_LEN - header.len();
    out[start + gap..start + MAX_HEADER_LEN].copy_from_slice(&header);
    out.drain(start..start + gap);
    let mut cksum = keyed_cksum(epoch, out.len() - start);
    cksum.update(&out[start..]);
    out.extend_from_slice(&cksum.finish().to_le_bytes());
    Ok(())
}

/// The fields of a frame header, and its length.
struct Header {
    kind: u8,
    /// The floor's epoch; `None` for any other kind, whose epoch is its
    /// position's.
    epoch: Option<u64>,
    payload_len: usize,
    len: usize,
}

impl Header {
    /// The header at the start of `rest`, the `rest.len()` bytes left
    /// of the file: the kind byte, an `epoch` varint if the kind is the
    /// floor's, and the `payload_len` varint. Bytes that end inside it
    /// are a torn header; a varint longer than its field's longest,
    /// padded with a zero group, or past its field's range is malformed.
    fn read(rest: &[u8]) -> Result<Header, String> {
        let torn = || format!("torn header: {} bytes", rest.len());
        let kind = *rest.first().ok_or_else(torn)?;
        let mut len = 1;
        let mut field = |name: &str, max: u64| -> Result<u64, String> {
            let mut value = 0;
            let mut shift = 0;
            loop {
                let byte = *rest.get(len).ok_or_else(torn)?;
                len += 1;
                // A group past the field's range (its continuation bit
                // counts) or a zero group closing a longer varint. The
                // range check ends every varint by its longest length.
                if u64::from(byte) > max >> shift || (byte == 0 && shift > 0) {
                    return Err(format!("malformed {name} varint"));
                }
                value |= u64::from(byte & 0x7F) << shift;
                if byte < 0x80 {
                    return Ok(value);
                }
                shift += 7;
            }
        };
        let epoch = match kind {
            KIND_SNAPSHOT => Some(field("epoch", u64::MAX)?),
            _ => None,
        };
        let payload_len = field("payload_len", u32::MAX.into())? as usize;
        Ok(Header {
            kind,
            epoch,
            payload_len,
            len,
        })
    }

    /// The frame's length — header, payload and checksum — if the
    /// `left` bytes from its start hold it whole.
    fn frame_len(&self, left: u64) -> Result<usize, String> {
        let total = (self.len + CKSUM_LEN) as u64 + self.payload_len as u64;
        if left < total {
            return Err(format!(
                "torn frame: {left} of {total} bytes (payload_len {})",
                self.payload_len
            ));
        }
        Ok(total as usize)
    }
}

/// A stored frame checksum checked against the one computed.
fn verify(stored: u64, actual: u64) -> Result<(), String> {
    if stored != actual {
        return Err(format!(
            "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        ));
    }
    Ok(())
}

/// A frame parsed from raw bytes (payload still encoded).
struct RawFrame<'a> {
    kind: u8,
    /// The epoch its checksum was verified under.
    epoch: u64,
    payload: &'a [u8],
    /// Total on-disk size of the frame, and of its header.
    len: usize,
    header_len: usize,
}

/// Parses and checksum-verifies the frame at `pos`, whose position
/// implies epoch `implied` (a floor header's own epoch overrides it).
/// `Err` is a human-readable fault description (the caller attaches
/// offsets).
fn parse_frame(bytes: &[u8], pos: usize, implied: u64) -> Result<RawFrame<'_>, String> {
    let rest = &bytes[pos..];
    let header = Header::read(rest)?;
    let total = header.frame_len(rest.len() as u64)?;
    let body = header.len + header.payload_len;
    let epoch = header.epoch.unwrap_or(implied);
    let stored = u64::from_le_bytes(rest[body..total].try_into().expect("8 checksum bytes"));
    let mut cksum = keyed_cksum(epoch, body);
    cksum.update(&rest[..body]);
    verify(stored, cksum.finish())?;
    Ok(RawFrame {
        kind: header.kind,
        epoch,
        payload: &rest[header.len..body],
        len: total,
        header_len: header.len,
    })
}

/// Walks the intact frames of the log at `path` (checksum-verified,
/// payloads not decoded) — the crash soak uses this to predict where
/// recovery must land after a simulated crash. Each frame after the
/// floor is verified under the epoch after its predecessor's. Stops at
/// the first fault; errors only if the file cannot be read or lacks the
/// magic.
pub fn frame_bounds(path: &Path) -> Result<Vec<FrameInfo>, WalError> {
    let bytes = std::fs::read(path)?;
    check_magic(&bytes)?;
    let mut frames = Vec::new();
    let mut pos = MAGIC.len();
    let mut next = 0;
    while pos < bytes.len() {
        match parse_frame(&bytes, pos, next) {
            Ok(f) => {
                frames.push(FrameInfo {
                    offset: pos as u64,
                    len: f.len as u64,
                    header_len: f.header_len as u64,
                    epoch: f.epoch,
                    kind: f.kind,
                });
                pos += f.len;
                next = f.epoch.wrapping_add(1);
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
        match Header::read(rest).and_then(|h| h.frame_len(rest.len() as u64)) {
            Ok(total) => pos += total,
            Err(_) => break,
        }
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
///
/// The floor streams: at most the longest header is read, its payload
/// length is checked against the file's, and the payload is read from
/// the header's end in [`SNAPSHOT_CHUNK`] pieces
/// through one buffer, parsed as it arrives
/// ([`DecodedSnapshot::decode_chunked`]) and fed to the frame's
/// [`Checksum64`] on the way. The checksum is checked once the whole
/// payload has parsed, before any symbol is interned. The frame tail
/// behind the floor is then read once, at its length, and replayed.
pub fn recover_in(
    path: &Path,
    policy: SyncPolicy,
    vocab: &Arc<Vocab>,
) -> Result<(Graph, WalWriter, RecoveryReport), WalError> {
    let mut log = File::open(path)?;
    let file_len = log.metadata()?.len();
    let mut magic = [0; MAGIC.len()];
    if file_len >= MAGIC.len() as u64 {
        log.read_exact(&mut magic)?;
    }
    check_magic(&magic)?;

    // Frame zero: the snapshot floor. Damage here is unrecoverable.
    let floor_fault = |what: String| WalError::Corrupt {
        offset: MAGIC.len() as u64,
        what: format!("base snapshot frame: {what}"),
    };
    let left = file_len - MAGIC.len() as u64;
    let mut head = [0; MAX_HEADER_LEN];
    let head = &mut head[..left.min(MAX_HEADER_LEN as u64) as usize];
    log.read_exact(head)?;
    let base = Header::read(head).map_err(floor_fault)?;
    let base_frame = base.frame_len(left).map_err(floor_fault)?;
    let (KIND_SNAPSHOT, Some(base_epoch)) = (base.kind, base.epoch) else {
        return Err(floor_fault(format!(
            "first frame has kind {} (want snapshot)",
            base.kind
        )));
    };
    // The parse validates the whole payload before anything is
    // interned, so a corrupt floor leaves the caller's vocabulary as it
    // was. A payload that parses has fed the checksum all of its bytes.
    let payload_fault = |e| WalError::Corrupt {
        offset: MAGIC.len() as u64,
        what: format!("base snapshot payload: {e}"),
    };
    // The read may have run past the header into the payload: the
    // payload streams from the header's end.
    log.seek(SeekFrom::Start((MAGIC.len() + base.len) as u64))?;
    let mut cksum = keyed_cksum(base_epoch, base.len + base.payload_len);
    cksum.update(&head[..base.len]);
    let snapshot = DecodedSnapshot::decode_chunked(base.payload_len, vocab, |chunk| {
        let n = log.read(chunk)?;
        cksum.update(&chunk[..n]);
        Ok(n)
    })?
    .map_err(payload_fault)?;
    let mut stored = [0; CKSUM_LEN];
    log.read_exact(&mut stored)?;
    verify(u64::from_le_bytes(stored), cksum.finish()).map_err(floor_fault)?;
    // The vocabulary the frames count on from: the floor's own table.
    let mut syms = u32::try_from(snapshot.symbol_count())
        .map_err(|_| floor_fault("symbol table overflows u32".into()))?;
    let mut replay = snapshot.intern().map_err(payload_fault)?;

    let mut report = RecoveryReport {
        recovered_epoch: base_epoch,
        ..RecoveryReport::default()
    };
    let base_len = (MAGIC.len() + base_frame) as u64;
    // The frames behind the floor, read once at their length; `pos`
    // counts from the floor's end.
    let mut bytes = vec![0; (file_len - base_len) as usize];
    log.read_exact(&mut bytes)?;
    let mut pos = 0;
    let mut head = base_epoch;
    let mut frames = 1u64;

    let mut fault: Option<FrameFault> = None;
    while pos < bytes.len() {
        let at = base_len + pos as u64;
        // Any fault from here on truncates; closures keep the
        // fault-description plumbing in one place.
        // The frame's position implies its epoch: its checksum holds
        // only under that one.
        let epoch = head.wrapping_add(1);
        let outcome = parse_frame(&bytes, pos, epoch).and_then(|f| {
            if f.kind != KIND_DELTA {
                return Err(format!("unexpected frame kind {}", f.kind));
            }
            let (names, delta) =
                GraphDelta::decode_with_symbols(f.payload, replay.node_count(), syms)
                    .map_err(|e| format!("payload: {e}"))?;
            Ok((f, names, delta))
        });
        let (f, names, delta) = match outcome {
            Ok(v) => v,
            Err(what) => {
                fault = Some(FrameFault {
                    offset: at,
                    epoch: Header::read(&bytes[pos..]).ok().map(|_| epoch),
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
                offset: at,
                epoch: Some(epoch),
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
                    offset: at,
                    what: format!(
                        "symbol {name:?} interned at index {} where the log expects {}",
                        sym.0,
                        syms as usize + j
                    ),
                });
            }
        }
        replay.apply_delta(&delta);
        head = epoch;
        syms += names.len() as u32;
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
    let len = base_len + pos as u64;
    let file = OpenOptions::new().append(true).open(path)?;
    if len < file_len {
        file.set_len(len)?;
    }
    file.sync_all()?;

    let writer = WalWriter {
        file,
        policy,
        head,
        syms_written: syms as usize,
        unsynced: 0,
        len,
        synced_len: len,
        synced_epoch: head,
        base_len,
        buf: Vec::new(),
        frames,
        fsyncs: 1,
    };
    Ok((replay.freeze(), writer, report))
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
    /// not decode — a byte too many or too few — is no floor: recovery
    /// errors out and has interned nothing into the caller's
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

        let trailing = [payload.as_slice(), &[0]].concat();
        let cut = payload[..payload.len() - 1].to_vec();
        let cases = [("trailing byte", trailing), ("cut payload", cut)];
        for (name, payload) in cases {
            let path = dir.file("floor.wal");
            let mut bytes = MAGIC.to_vec();
            let at = MAGIC.len() as u64;
            frame_into(&mut bytes, at, KIND_SNAPSHOT, 0, |out| {
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

    /// The floor is checked whole before anything is interned: a
    /// header that claims more payload than the file holds is a torn
    /// floor, found before a byte of it is read, and a payload that
    /// parses under a checksum that does not match — a flipped bit in
    /// the checksum lane, or in a symbol name — is no floor. Each
    /// errors out with the caller's vocabulary as it was.
    #[test]
    fn a_floor_that_parses_is_still_checked_before_it_is_interned() {
        let dir = TempDir::new("gfd-wal-floor-checks").unwrap();
        let path = dir.file("floor.wal");
        let (_, _, w) = build_log(&path, SyncPolicy::OnDemand);
        let base_end = w.base_bytes() as usize;
        drop(w);
        let log = std::fs::read(&path).unwrap();

        // The floor's header re-encoded with a `payload_len` varint that
        // claims 1 MiB more than the file holds.
        let floor = &log[MAGIC.len()..base_end];
        let h = Header::read(floor).unwrap();
        let epoch = h.epoch.expect("the floor's header holds its epoch");
        let claimed = frame_header(0, h.kind, epoch, h.payload_len + (1 << 20));
        let overclaimed = [&MAGIC[..], &claimed.unwrap(), &floor[h.len..]].concat();
        let mut lane = log.clone();
        lane[base_end - 1] ^= 0x20;
        // The first symbol's first byte: behind the symbol count and
        // the name's length, one byte each.
        let mut name = log.clone();
        name[MAGIC.len() + h.len + 2] ^= 0x01;

        let cases = [
            ("claimed length", overclaimed, "torn frame"),
            ("checksum lane", lane, "checksum mismatch"),
            ("symbol name", name, "checksum mismatch"),
        ];
        for (case, bytes, want) in cases {
            std::fs::write(&path, &bytes).unwrap();
            let vocab = Vocab::shared();
            vocab.intern("rule-side name");
            match recover_in(&path, SyncPolicy::OnDemand, &vocab) {
                Err(WalError::Corrupt { offset, what }) => {
                    assert_eq!(offset, MAGIC.len() as u64, "{case}");
                    assert!(what.contains(want), "{case}: {what}");
                }
                other => panic!("{case}: {other:?}"),
            }
            assert_eq!(vocab.len(), 1, "{case}: the vocabulary grew");
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
            frame_into(&mut expected, at, KIND_SNAPSHOT, 7, |out| {
                out.extend_from_slice(&payload)
            })
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
    /// wrapped length; the largest that fits is written as is, behind
    /// the epoch in the floor's header and alone in a delta's.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn frame_header_refuses_a_payload_past_u32() {
        let too_long = u32::MAX as usize + 1;
        for kind in [KIND_SNAPSHOT, KIND_DELTA] {
            match frame_header(40, kind, 3, too_long) {
                Err(WalError::Corrupt { offset, what }) => {
                    assert_eq!(offset, 40);
                    assert!(what.contains(&too_long.to_string()), "{what}");
                }
                other => panic!("{:?}", other.map(|h| h.to_vec())),
            }
        }
        let longest = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        let floor = frame_header(40, KIND_SNAPSHOT, 3, u32::MAX as usize).unwrap();
        assert_eq!(*floor, [&[KIND_SNAPSHOT, 3][..], &longest].concat());
        let delta = frame_header(40, KIND_DELTA, 3, u32::MAX as usize).unwrap();
        assert_eq!(*delta, [&[KIND_DELTA][..], &longest].concat());
    }

    /// Every header round-trips at the varint boundaries — a field of
    /// 7k bits takes k bytes, and only the floor's header holds its
    /// epoch — and every strict prefix of it is torn.
    #[test]
    fn headers_round_trip_at_the_varint_boundaries() {
        let epochs = [(0, 1), (127, 1), (128, 2), (1 << 14, 3), (u64::MAX, 10)];
        let lengths = [(0, 1), (127, 1), (128, 2), (u32::MAX as usize, 5)];
        for (kind, (epoch, epoch_bytes)) in epochs
            .iter()
            .map(|&e| (KIND_SNAPSHOT, e))
            .chain(epochs.iter().map(|&(e, _)| (KIND_DELTA, (e, 0))))
        {
            for (payload_len, len_bytes) in lengths {
                let header = frame_header(8, kind, epoch, payload_len).unwrap();
                assert_eq!(header.len(), 1 + epoch_bytes + len_bytes);
                let back = Header::read(&header).unwrap();
                let held = (kind == KIND_SNAPSHOT).then_some(epoch);
                assert_eq!(
                    (back.kind, back.epoch, back.payload_len, back.len),
                    (kind, held, payload_len, header.len())
                );
                // Bytes behind the header are not read.
                let padded = [&header[..], &[0xFF; 4]].concat();
                assert_eq!(Header::read(&padded).unwrap().len, header.len());
                for cut in 0..header.len() {
                    let torn = Header::read(&header[..cut]).err();
                    assert!(torn.is_some_and(|e| e.contains("torn header")), "{cut}");
                }
            }
        }
    }

    /// A varint longer than its field, padded with a zero group, or past
    /// its field's range is malformed — in a header read on its own and
    /// in a checksummed frame recovery meets, which it cuts like a torn
    /// one.
    #[test]
    fn an_overlong_varint_is_a_fault() {
        let (floor, delta) = ([KIND_SNAPSHOT], [KIND_DELTA]);
        let one = [1u8];
        let cases: [(&str, Vec<u8>); 6] = [
            (
                "11-byte epoch",
                [&floor[..], &[0x80; 10], &[0], &one].concat(),
            ),
            ("6-byte length", [&delta[..], &[0x80; 5], &[0]].concat()),
            ("padded epoch", [&floor[..], &[0x85, 0x00], &one].concat()),
            ("padded length", [&delta[..], &[0x81, 0x00]].concat()),
            (
                "epoch past u64",
                [&floor[..], &[0xFF; 9], &[0x02], &one].concat(),
            ),
            (
                "length past u32",
                [&delta[..], &[0xFF; 4], &[0x1F]].concat(),
            ),
        ];
        let dir = TempDir::new("gfd-wal-overlong").unwrap();
        let path = dir.file("edits.wal");
        let (_, snapshots, w) = build_log(&path, SyncPolicy::OnDemand);
        let end = w.bytes();
        drop(w);
        let log = std::fs::read(&path).unwrap();
        for (case, header) in cases {
            let what = Header::read(&header).err();
            assert!(what.is_some_and(|e| e.contains("malformed")), "{case}");
            // Give it a payload byte and the checksum its position keys:
            // only the header is wrong.
            let mut frame = [&header[..], &[0]].concat();
            let mut cksum = keyed_cksum(6, frame.len());
            cksum.update(&frame);
            frame.extend_from_slice(&cksum.finish().to_le_bytes());
            std::fs::write(&path, [&log[..], &frame].concat()).unwrap();
            let (g, _, report) = recover(&path, SyncPolicy::OnDemand).unwrap();
            assert_eq!(report.recovered_epoch, 5, "{case}");
            assert!(same_snapshot(&g, &snapshots[5]).is_ok(), "{case}");
            let fault = report.corruption.expect("the frame is reported");
            assert_eq!((fault.offset, fault.epoch), (end, None), "{case}");
            assert!(fault.what.contains("malformed"), "{case}: {fault:?}");
            assert_eq!(report.truncated_frames, 1, "{case}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), end, "{case}");
        }
    }

    /// Every strict prefix of a delta frame is a torn frame, cut back to
    /// the frame before it; every strict prefix of the floor's header
    /// is no floor. Neither panics.
    #[test]
    fn every_strict_prefix_of_a_frame_or_the_floor_header_is_torn() {
        let dir = TempDir::new("gfd-wal-prefix").unwrap();
        let path = dir.file("edits.wal");
        let (_, snapshots, w) = build_log(&path, SyncPolicy::OnDemand);
        drop(w);
        let log = std::fs::read(&path).unwrap();
        let frames = frame_bounds(&path).unwrap();
        let prefix = dir.file("prefix.wal");
        for f in &frames[1..] {
            let start = f.offset as usize;
            for cut in 1..f.len as usize {
                std::fs::write(&prefix, &log[..start + cut]).unwrap();
                let (g, _, report) = recover(&prefix, SyncPolicy::OnDemand).unwrap();
                let at = format!("epoch {} cut {cut}", f.epoch);
                assert_eq!(report.recovered_epoch, f.epoch - 1, "{at}");
                assert!(same_snapshot(&g, &snapshots[f.epoch as usize - 1]).is_ok());
                let fault = report.corruption.expect("a torn frame is reported");
                assert!(fault.what.starts_with("torn"), "{at}: {fault:?}");
                assert_eq!(fault.offset, f.offset, "{at}");
                assert_eq!(report.truncated_frames, 1, "{at}");
                assert_eq!(report.truncated_bytes, cut as u64, "{at}");
            }
        }
        let floor = frames[0];
        assert_eq!(floor.offset, MAGIC.len() as u64);
        for cut in 0..floor.header_len as usize {
            std::fs::write(&prefix, &log[..MAGIC.len() + cut]).unwrap();
            match recover(&prefix, SyncPolicy::OnDemand) {
                Err(WalError::Corrupt { offset, what }) => {
                    assert_eq!(offset, MAGIC.len() as u64);
                    assert!(what.contains("torn header"), "cut {cut}: {what}");
                }
                other => panic!("cut {cut}: {:?}", other.map(|r| r.2)),
            }
        }
    }

    /// Every earlier format's files — the fixed-width one and the
    /// envelope that stored each delta's epoch and symbol count — are
    /// refused at the magic: there is one format and no reader of an
    /// old one.
    #[test]
    fn a_version_one_log_is_refused_as_bad_magic() {
        let dir = TempDir::new("gfd-wal-v1").unwrap();
        let path = dir.file("edits.wal");
        let (_, _, w) = build_log(&path, SyncPolicy::OnDemand);
        drop(w);
        let log = std::fs::read(&path).unwrap();
        let version = MAGIC.len() - 1;
        for older in b'1'..MAGIC[version] {
            let mut bytes = log.clone();
            bytes[version] = older;
            std::fs::write(&path, &bytes).unwrap();
            match recover(&path, SyncPolicy::OnDemand) {
                Err(WalError::Corrupt { offset: 0, what }) => {
                    assert!(what.contains("magic"), "{what}")
                }
                other => panic!("{:?}", other.map(|r| r.2)),
            }
            assert!(frame_bounds(&path).is_err());
        }
    }

    /// A delta frame's epoch is its position, keyed into its checksum:
    /// two frames swapped, a frame dropped or one written twice put a
    /// frame where its position implies another epoch, and recovery cuts
    /// the log at the first such frame with a checksum mismatch.
    #[test]
    fn frames_out_of_place_truncate_at_the_first_of_them() {
        let dir = TempDir::new("gfd-wal-place").unwrap();
        let path = dir.file("edits.wal");
        let (_, snapshots, w) = build_log(&path, SyncPolicy::OnDemand);
        drop(w);
        let log = std::fs::read(&path).unwrap();
        let f = frame_bounds(&path).unwrap();
        let frame = |i: usize| &log[f[i].offset as usize..(f[i].offset + f[i].len) as usize];
        let head = &log[..f[2].offset as usize];
        let tail = |from: usize| &log[f[from].offset as usize..];
        // Each case keeps epochs 0 and 1 in place; what follows them
        // is out of place from its first frame on.
        let cases = [
            ("swapped", [head, frame(3), frame(2), tail(4)].concat(), 4),
            ("dropped", [head, tail(3)].concat(), 3),
            ("repeated", [head, frame(1), tail(2)].concat(), 5),
        ];
        for (case, bytes, dropped) in cases {
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(frame_bounds(&path).unwrap().len(), 2, "{case}");
            let (g, _, report) = recover(&path, SyncPolicy::OnDemand).unwrap();
            assert_eq!(report.recovered_epoch, 1, "{case}");
            assert!(same_snapshot(&g, &snapshots[1]).is_ok(), "{case}");
            let fault = report.corruption.expect("the frame is reported");
            assert_eq!(
                (fault.offset, fault.epoch),
                (f[2].offset, Some(2)),
                "{case}"
            );
            assert!(
                fault.what.contains("checksum mismatch"),
                "{case}: {fault:?}"
            );
            assert_eq!(report.truncated_frames, dropped, "{case}");
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                f[2].offset,
                "{case}"
            );
        }
    }

    /// The shortest frame is an empty delta's: its kind byte, its
    /// one-byte length, the payload's presence byte with no list behind
    /// it, and the checksum — 11 bytes. The lifecycle benchmark's crash
    /// keeps a 9-byte torn tail of the first unsynced frame
    /// (`TORN_TAIL_BYTES` in `benchmark/src/layers.rs`), which must never
    /// hold a whole frame.
    #[test]
    fn the_shortest_frame_is_eleven_bytes() {
        let dir = TempDir::new("gfd-wal-shortest").unwrap();
        let path = dir.file("edits.wal");
        let (_, snapshots, mut w) = build_log(&path, SyncPolicy::OnDemand);
        let before = w.bytes();
        let empty = GraphDelta::new(snapshots[5].node_count());
        w.append(6, &empty, snapshots[5].vocab()).unwrap();
        assert_eq!(w.bytes() - before, 11);
        drop(w);
        let last = *frame_bounds(&path).unwrap().last().unwrap();
        assert_eq!((last.epoch, last.len, last.header_len), (6, 11, 2));
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[before as usize..][..3], [KIND_DELTA, 1, 0]);
        let (g, _, report) = recover(&path, SyncPolicy::OnDemand).unwrap();
        assert_eq!(report.recovered_epoch, 6);
        assert!(same_snapshot(&g, &snapshots[5]).is_ok());
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
