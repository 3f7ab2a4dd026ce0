//! The one LEB128 varint codec, and the byte-level primitives built on
//! it, of every plain-bytes record the workspace writes to disk: the
//! [`GraphDelta`](crate::GraphDelta) record, the snapshot record
//! ([`encode_snapshot`](crate::encode_snapshot)) and the write-ahead
//! log's frame envelope in `gfd-parallel`. A varint holds seven bits a
//! byte, low group first, the high bit set on every byte but the last,
//! and has exactly one encoding: [`Reader::varint`] refuses a padded,
//! overlong or overflowing one. Beside it are tagged values and
//! length-prefixed UTF-8 strings, and a bounds-checked [`Reader`] whose
//! every error is a [`DeltaError`] — hostile input surfaces as `Err`,
//! never as a panic.

use crate::delta::DeltaError;
use crate::value::Value;
use std::sync::Arc;

/// Value kind tags; `TAG_NONE` encodes an attribute removal.
const TAG_NONE: u8 = 0;
const TAG_STR: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_BOOL: u8 = 3;

/// LEB128: 7 value bits per byte, high bit = continuation.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Length-prefixed UTF-8 bytes.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Tagged value; `None` is an attribute removal.
pub(crate) fn put_value(out: &mut Vec<u8>, v: Option<&Value>) {
    match v {
        None => out.push(TAG_NONE),
        Some(Value::Str(s)) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Some(Value::Int(i)) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Some(Value::Bool(b)) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
    }
}

/// Where a [`Reader`]'s bytes come from: a window onto the input,
/// which is the whole input when it is in memory, or the part of a
/// chunked input read so far and not yet consumed.
pub trait Input {
    /// The bytes held.
    fn window(&self) -> &[u8];
    /// Drops the window's first `consumed` bytes and reads on until
    /// it holds at least `need` bytes. Called only when the input
    /// has that many bytes left; `false` if they cannot be read,
    /// the window then holding what was.
    fn refill(&mut self, consumed: usize, need: usize) -> bool;
}

/// An input held whole: there is nothing to read on from.
impl Input for &[u8] {
    fn window(&self) -> &[u8] {
        self
    }
    fn refill(&mut self, consumed: usize, _: usize) -> bool {
        *self = &self[consumed..];
        false
    }
}

/// A bounds-checked cursor over untrusted bytes. Offsets, and so
/// error offsets, count from the input's start, whichever window
/// holds them.
pub struct Reader<I> {
    input: I,
    /// Position in the window.
    pos: usize,
    /// Input offset of the window's first byte.
    start: usize,
    /// Input length.
    len: usize,
}

impl<'a> Reader<&'a [u8]> {
    /// A reader over an input held whole: one window, one chunk.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader::over(bytes, bytes.len())
    }
}

impl<I: Input> Reader<I> {
    /// A reader over the `len` bytes `input` holds or reads.
    pub(crate) fn over(input: I, len: usize) -> Self {
        Reader {
            input,
            pos: 0,
            start: 0,
            len,
        }
    }

    /// Current byte offset (for error reporting).
    pub fn offset(&self) -> usize {
        self.start + self.pos
    }

    fn remaining(&self) -> usize {
        self.len - self.offset()
    }

    /// Brings the next `n` bytes into the window.
    #[inline]
    fn want(&mut self, n: usize) -> Result<(), DeltaError> {
        if self.input.window().len() - self.pos >= n {
            return Ok(());
        }
        self.refill(n)
    }

    /// [`want`](Reader::want) past the window: an element cut by a
    /// chunk boundary is completed from the next chunk. Past the
    /// input's end, or where it cannot be read, the input is
    /// truncated — so a claimed length is never read or buffered
    /// beyond the bytes the input holds.
    #[cold]
    fn refill(&mut self, n: usize) -> Result<(), DeltaError> {
        if n > self.remaining() {
            return Err(DeltaError::Truncated { offset: self.len });
        }
        let refilled = self.input.refill(self.pos, n);
        self.start += self.pos;
        self.pos = 0;
        if !refilled {
            let offset = self.start + self.input.window().len();
            return Err(DeltaError::Truncated { offset });
        }
        Ok(())
    }

    pub fn byte(&mut self) -> Result<u8, DeltaError> {
        self.want(1)?;
        let b = self.input.window()[self.pos];
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&[u8], DeltaError> {
        self.want(n)?;
        self.pos += n;
        Ok(&self.input.window()[self.pos - n..self.pos])
    }

    /// LEB128 u64; overlong encodings (more than 10 bytes, or a
    /// final byte overflowing 64 bits) are corrupt, so every value
    /// has exactly one encoding.
    pub fn varint(&mut self) -> Result<u64, DeltaError> {
        let start = self.offset();
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            let low = (byte & 0x7F) as u64;
            if shift == 63 && low > 1 {
                return Err(DeltaError::Corrupt {
                    offset: start,
                    what: "varint overflows u64",
                });
            }
            v |= low << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(DeltaError::Corrupt {
                        offset: start,
                        what: "overlong varint",
                    });
                }
                return Ok(v);
            }
        }
        Err(DeltaError::Corrupt {
            offset: start,
            what: "varint longer than 10 bytes",
        })
    }

    /// A varint that must fit `u32` (node ids, symbols).
    pub fn varint_u32(&mut self, what: &'static str) -> Result<u32, DeltaError> {
        let offset = self.offset();
        u32::try_from(self.varint()?).map_err(|_| DeltaError::Corrupt {
            offset,
            what: wide32(what),
        })
    }

    /// A varint that must fit `usize`.
    pub(crate) fn varint_usize(&mut self, what: &'static str) -> Result<usize, DeltaError> {
        let offset = self.offset();
        usize::try_from(self.varint()?).map_err(|_| DeltaError::Corrupt {
            offset,
            what: wide32(what),
        })
    }

    /// An element count. Every encoded element occupies at least
    /// one byte, so a count beyond the remaining input is corrupt
    /// — this caps attacker-controlled pre-allocation at the size
    /// of the input itself.
    pub(crate) fn element_count(&mut self, what: &'static str) -> Result<usize, DeltaError> {
        let offset = self.offset();
        let n = self.varint_usize(what)?;
        if n > self.remaining() {
            return Err(DeltaError::Corrupt {
                offset,
                what: "element count exceeds input size",
            });
        }
        Ok(n)
    }

    /// Length-prefixed UTF-8, borrowed from the window.
    pub(crate) fn str(&mut self) -> Result<&str, DeltaError> {
        let len = self.varint_usize("string length")?;
        let offset = self.offset();
        std::str::from_utf8(self.take(len)?).map_err(|_| DeltaError::Corrupt {
            offset,
            what: "string is not UTF-8",
        })
    }

    /// Tagged value; unknown tags and non-0/1 booleans are corrupt.
    pub(crate) fn value(&mut self) -> Result<Option<Value>, DeltaError> {
        self.value_with(|s| Arc::from(s))
    }

    /// [`value`](Reader::value), its string made by `string`.
    pub(crate) fn value_with(
        &mut self,
        string: impl FnOnce(&str) -> Arc<str>,
    ) -> Result<Option<Value>, DeltaError> {
        let offset = self.offset();
        match self.byte()? {
            TAG_NONE => Ok(None),
            TAG_STR => Ok(Some(Value::Str(string(self.str()?)))),
            TAG_INT => {
                let raw = self.take(8)?;
                Ok(Some(Value::Int(i64::from_le_bytes(
                    raw.try_into().expect("take(8) yields 8 bytes"),
                ))))
            }
            TAG_BOOL => match self.byte()? {
                0 => Ok(Some(Value::Bool(false))),
                1 => Ok(Some(Value::Bool(true))),
                _ => Err(DeltaError::Corrupt {
                    offset,
                    what: "boolean byte is neither 0 nor 1",
                }),
            },
            _ => Err(DeltaError::Corrupt {
                offset,
                what: "unknown value tag",
            }),
        }
    }

    /// Asserts the input was consumed exactly.
    pub(crate) fn finish(self) -> Result<(), DeltaError> {
        if self.offset() != self.len {
            return Err(DeltaError::Corrupt {
                offset: self.offset(),
                what: "trailing bytes after encoding",
            });
        }
        Ok(())
    }
}

/// Shared "doesn't fit 32 bits" message (the field name is carried
/// by the caller's error site; keeping one static string per field
/// would bloat the reader's signatures for no diagnostic gain).
fn wide32(_what: &'static str) -> &'static str {
    "value too wide for its field"
}
