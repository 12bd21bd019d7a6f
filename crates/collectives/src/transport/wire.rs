//! The `DCTP` wire format, factored out of the socket plumbing.
//!
//! Every message is one length-prefixed frame with a CRC-32 trailer
//! (checksum over everything after the magic):
//!
//! ```text
//! magic "DCTP" | kind u8 | src u32 | comm_id u64 | tag u32 | len u64 | payload | crc u32
//! ```
//!
//! `kind` is 0 for byte payloads, 1 for `f32` payloads (framed as little-
//! endian words, so results are bit-identical to the threaded backend), and
//! 2 for the BYE frame that closes a connection cleanly.
//!
//! ## Copy-free encode/decode
//!
//! [`encode_frame`] is the original staging encoder: it assembles header,
//! payload and CRC into one fresh `Vec` per message, converting `f32`
//! payloads four bytes at a time. It is kept as the byte-exact *reference* —
//! the equivalence tests and the `dcnn-perf` baseline compare against it —
//! but the hot path no longer uses it. Writers instead compute
//! [`FrameParts`] (the 29-byte head and 4-byte CRC trailer around the
//! payload) and hand head/payload/trailer to [`write_frames_vectored`],
//! which pushes them through one `writev`-style call: the payload bytes go
//! from the `Arc` buffer straight into the socket, never re-staged. On
//! little-endian targets (everything we run on) an `f32` payload's wire
//! bytes *are* its in-memory bytes, so the conversion is free too;
//! big-endian targets pay one bounce buffer.
//!
//! Decoding is symmetric: an `f32` body is read directly into the final
//! `Vec<f32>` allocation (no intermediate byte `Vec`, no per-element
//! `from_le_bytes`), with the CRC checked over the same bytes. On the rank
//! fabric that allocation is a recycled one from the endpoint's
//! [`BufPool`], so it is not zero-filled before the socket overwrites it.
//!
//! ## The checksum pass
//!
//! After the copies went, the CRC-32 over the body was the only pass left
//! on either side, and at the portable kernel's ~1.5 GiB/s it was the whole
//! cost of [`frame_parts`] and most of [`read_frame`]. Both call
//! [`super::crc32_update`], which on x86_64 runs the `PCLMULQDQ` kernel of
//! [`super::crc`] for bodies of 64 bytes or more; the 25-byte header always
//! takes the table kernel. The trailer is the CRC-32/IEEE *value* of
//! header ‖ body, which no kernel choice can change: [`encode_frame`] (the
//! staged reference, one `crc32` call over the contiguous frame) and the
//! vectored writer (streaming, header then body) are held byte-identical
//! by the tests below up to 1 MiB bodies, and frames from a build that
//! predates the hardware kernel decode here unchanged.

use std::borrow::Cow;
use std::io::{self, IoSlice, Read, Write};

use super::{BufPool, Payload, WireMsg};

/// Leading magic of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"DCTP";
/// `kind` for raw byte payloads.
pub const KIND_BYTES: u8 = 0;
/// `kind` for little-endian `f32` payloads.
pub const KIND_F32: u8 = 1;
/// `kind` for the graceful-close frame.
pub const KIND_BYE: u8 = 2;
/// `kind` for a data-plane batch request (client → blob server). The
/// header fields are repurposed: `src` is the client's trainer rank, `tag`
/// the request sequence number, `comm_id` the epoch.
pub const KIND_DATA_REQ: u8 = 3;
/// `kind` for a data-plane batch reply (blob server → client): the payload
/// is the packed record list and `comm_id` carries the augmentation salt.
pub const KIND_DATA_BATCH: u8 = 4;
/// `kind` for the data-plane end-of-epoch barrier, sent by the client when
/// its epoch is drained and echoed by the server once the cross-node
/// shuffle (if any) has completed.
pub const KIND_DATA_EOE: u8 = 5;
/// Refuse frames claiming more than this many payload bytes: a corrupted
/// length must not become a giant allocation.
pub const MAX_FRAME_PAYLOAD: u64 = 1 << 31;

/// Fixed-size portion after the magic: kind(1) src(4) comm_id(8) tag(4) len(8).
pub const HEADER_LEN: usize = 25;
/// Magic + header: everything before the payload.
pub const FRAME_HEAD_LEN: usize = 4 + HEADER_LEN;

/// Streaming CRC-32 over multiple slices, the same function as
/// [`super::crc32`] — lets the vectored write path checksum header and
/// payload without concatenating them first.
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    fn update(&mut self, data: &[u8]) {
        self.0 = super::crc32_update(self.0, data);
    }

    fn finish(self) -> u32 {
        !self.0
    }
}

/// The wire `kind` byte of a payload.
pub fn payload_kind(p: &Payload) -> u8 {
    match p {
        Payload::Bytes(_) => KIND_BYTES,
        Payload::F32(_) => KIND_F32,
    }
}

/// A payload's wire bytes, borrowed without copying whenever the in-memory
/// representation already matches the wire encoding: always for byte
/// payloads, and for `f32` payloads on little-endian targets (the wire
/// format is little-endian words). Big-endian targets pay one conversion
/// copy.
pub fn payload_wire_bytes(p: &Payload) -> Cow<'_, [u8]> {
    match p {
        Payload::Bytes(b) => Cow::Borrowed(b.as_slice()),
        Payload::F32(v) => f32s_as_le_bytes(v),
    }
}

#[cfg(target_endian = "little")]
pub(super) fn f32s_as_le_bytes(v: &[f32]) -> Cow<'_, [u8]> {
    // SAFETY: `f32` is 4 bytes with no padding, any byte pattern is a valid
    // `u8`, and `u8` has alignment 1, so reinterpreting the allocation as
    // bytes is always in-bounds and well-formed. On a little-endian target
    // those bytes are exactly the wire encoding.
    Cow::Borrowed(unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), v.len() * 4) })
}

#[cfg(not(target_endian = "little"))]
pub(super) fn f32s_as_le_bytes(v: &[f32]) -> Cow<'_, [u8]> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    Cow::Owned(out)
}

/// The constant-size pieces of one frame: everything around the payload.
/// A vectored write sends `head`, the payload bytes, and `crc` back to back
/// — byte-identical to what [`encode_frame`] stages, without the staging.
pub struct FrameParts {
    /// Magic + header (kind, src, comm_id, tag, len).
    pub head: [u8; FRAME_HEAD_LEN],
    /// CRC-32 trailer over header-after-magic + payload.
    pub crc: [u8; 4],
}

/// Compute the head and CRC trailer for one frame whose payload wire bytes
/// are `body`.
pub fn frame_parts(src: usize, comm_id: u64, tag: u32, kind: u8, body: &[u8]) -> FrameParts {
    let mut head = [0u8; FRAME_HEAD_LEN];
    head[0..4].copy_from_slice(&FRAME_MAGIC);
    head[4] = kind;
    head[5..9].copy_from_slice(&(src as u32).to_le_bytes());
    head[9..17].copy_from_slice(&comm_id.to_le_bytes());
    head[17..21].copy_from_slice(&tag.to_le_bytes());
    head[21..29].copy_from_slice(&(body.len() as u64).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&head[4..]);
    crc.update(body);
    FrameParts { head, crc: crc.finish().to_le_bytes() }
}

/// Serialize one message as a complete staged frame. This is the reference
/// encoder the vectored path must match byte for byte; the hot path uses
/// [`write_frames_vectored`] instead.
pub fn encode_frame(src: usize, comm_id: u64, tag: u32, payload: &Payload) -> Vec<u8> {
    let (kind, len) = match payload {
        Payload::Bytes(b) => (KIND_BYTES, b.len()),
        Payload::F32(v) => (KIND_F32, v.len() * 4),
    };
    let mut out = Vec::with_capacity(FRAME_HEAD_LEN + len + 4);
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(kind);
    out.extend_from_slice(&(src as u32).to_le_bytes());
    out.extend_from_slice(&comm_id.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(len as u64).to_le_bytes());
    match payload {
        Payload::Bytes(b) => out.extend_from_slice(b),
        Payload::F32(v) => {
            for x in v.iter() {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    let crc = super::crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The graceful-close frame (empty BYE payload).
pub fn encode_bye(src: usize) -> Vec<u8> {
    let parts = frame_parts(src, 0, 0, KIND_BYE, &[]);
    let mut out = Vec::with_capacity(FRAME_HEAD_LEN + 4);
    out.extend_from_slice(&parts.head);
    out.extend_from_slice(&parts.crc);
    out
}

/// Write every buffer in `bufs`, in order, completely — `write_all` over a
/// `writev`-style scatter list. Retries short writes and `Interrupted`;
/// empty buffers are skipped.
pub fn write_all_vectored(w: &mut impl Write, bufs: &[&[u8]]) -> io::Result<()> {
    let mut idx = 0; // current buffer
    let mut off = 0; // bytes of bufs[idx] already written
    while idx < bufs.len() {
        if off == bufs[idx].len() {
            idx += 1;
            off = 0;
            continue;
        }
        let slices: Vec<IoSlice<'_>> = std::iter::once(IoSlice::new(&bufs[idx][off..]))
            .chain(bufs[idx + 1..].iter().filter(|b| !b.is_empty()).map(|b| IoSlice::new(b)))
            .collect();
        let mut n = match w.write_vectored(&slices) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "vectored frame write made no progress",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while n > 0 && idx < bufs.len() {
            let rem = bufs[idx].len() - off;
            if n >= rem {
                n -= rem;
                idx += 1;
                off = 0;
            } else {
                off += n;
                n = 0;
            }
        }
    }
    Ok(())
}

/// Send a batch of frames through one vectored write: head, payload bytes
/// and CRC trailer of every frame go straight from their owning buffers to
/// `w`, with no staging copy of any payload. Byte-identical on the wire to
/// writing each frame's [`encode_frame`] output back to back. Each frame's
/// kind is derived from its payload type.
pub fn write_frames_vectored(w: &mut impl Write, msgs: &[WireMsg]) -> io::Result<()> {
    write_frames(w, msgs.iter().map(|m| (payload_kind(&m.payload), m)))
}

/// [`write_frames_vectored`] with each frame's kind given explicitly: the
/// data plane's frames, and every frame the shared writer thread
/// ([`super::tcp::spawn_writer`]) sends on either kind of connection.
pub fn write_service_frames_vectored(
    w: &mut impl Write,
    frames: &[(u8, WireMsg)],
) -> io::Result<()> {
    write_frames(w, frames.iter().map(|(kind, m)| (*kind, m)))
}

/// The one frame encoder behind both entry points: head, body slice and
/// trailer of each `(kind, message)`, then one [`write_all_vectored`].
fn write_frames<'a>(
    w: &mut impl Write,
    frames: impl Iterator<Item = (u8, &'a WireMsg)>,
) -> io::Result<()> {
    let framed: Vec<(FrameParts, Cow<'a, [u8]>)> = frames
        .map(|(kind, m)| {
            let body = payload_wire_bytes(&m.payload);
            (frame_parts(m.src, m.comm_id, m.tag, kind, &body), body)
        })
        .collect();
    let mut bufs: Vec<&[u8]> = Vec::with_capacity(3 * framed.len());
    for (p, body) in &framed {
        bufs.push(&p.head);
        bufs.push(body);
        bufs.push(&p.crc);
    }
    write_all_vectored(w, &bufs)
}

/// One parsed read off a connection.
#[derive(Debug)]
pub enum FrameRead {
    /// A data frame.
    Msg(WireMsg),
    /// A data-plane service frame ([`KIND_DATA_REQ`], [`KIND_DATA_BATCH`]
    /// or [`KIND_DATA_EOE`]): same CRC'd envelope, byte payload, but it
    /// belongs to the blob-server protocol rather than the rank fabric.
    Service {
        /// Which data-plane kind arrived.
        kind: u8,
        /// The envelope (src / comm_id / tag repurposed per kind) and
        /// payload bytes.
        msg: WireMsg,
    },
    /// The peer closed the connection gracefully (explicit BYE frame).
    Bye,
    /// The stream ended with no BYE: the peer died without shutting down.
    Eof,
}

#[cfg(target_endian = "little")]
fn read_f32_body(r: &mut impl Read, v: &mut [f32], crc: &mut Crc32) -> io::Result<()> {
    // SAFETY: same layout argument as `f32s_as_le_bytes`, mutably — the
    // socket bytes land directly in the final `Vec<f32>` allocation.
    let bytes =
        unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast::<u8>(), v.len() * 4) };
    r.read_exact(bytes)?;
    crc.update(bytes);
    Ok(())
}

#[cfg(not(target_endian = "little"))]
fn read_f32_body(r: &mut impl Read, v: &mut [f32], crc: &mut Crc32) -> io::Result<()> {
    let mut bytes = vec![0u8; v.len() * 4];
    r.read_exact(&mut bytes)?;
    crc.update(&bytes);
    for (x, c) in v.iter_mut().zip(bytes.chunks_exact(4)) {
        *x = f32::from_le_bytes(c.try_into().expect("4"));
    }
    Ok(())
}

/// Read one frame. A graceful close ([`FrameRead::Bye`]) and a bare EOF
/// ([`FrameRead::Eof`]) are distinct outcomes: every clean shutdown path
/// sends BYE first, so an EOF at a frame boundary means the peer process
/// died (SIGKILL, crash) and its kernel closed the socket. A stream cut
/// *inside* a frame — head, body or trailer — is an `UnexpectedEof` error.
///
/// `f32` bodies are read straight into the delivered `Vec<f32>` allocation
/// (no staging byte buffer). A `KIND_F32` frame whose claimed length is not
/// a multiple of 4 is rejected with a structured error *before* any body
/// byte is read — trailing bytes are never silently dropped.
pub fn read_frame(r: &mut impl Read) -> io::Result<FrameRead> {
    read_frame_with(r, None)
}

/// [`read_frame`], reading an `f32` body into a buffer from `pool` when one
/// is given — already initialised, so nothing is zero-filled first — and
/// into a fresh zeroed `Vec` otherwise. Both checks on the claimed length
/// run before a buffer is taken.
pub(crate) fn read_frame_with(r: &mut impl Read, pool: Option<&BufPool>) -> io::Result<FrameRead> {
    // One read for magic and header together whenever the socket already
    // holds them. Only a stream that ends *exactly* at a frame boundary is
    // `Eof`; ending anywhere inside the head is a torn frame, the same as
    // ending inside the body.
    let mut head = [0u8; FRAME_HEAD_LEN];
    let mut got = 0;
    while got < FRAME_HEAD_LEN {
        match r.read(&mut head[got..]) {
            Ok(0) if got == 0 => return Ok(FrameRead::Eof),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream ended {got} bytes into a {FRAME_HEAD_LEN}-byte frame head"),
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if head[..4] != FRAME_MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad frame magic"));
    }
    let header = &head[4..];
    let kind = header[0];
    let src = u32::from_le_bytes(header[1..5].try_into().expect("4")) as usize;
    let comm_id = u64::from_le_bytes(header[5..13].try_into().expect("8"));
    let tag = u32::from_le_bytes(header[13..17].try_into().expect("4"));
    let len = u64::from_le_bytes(header[17..25].try_into().expect("8"));
    if len > MAX_FRAME_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame claims {len} payload bytes (corrupt length?)"),
        ));
    }
    let mut crc = Crc32::new();
    crc.update(header);
    let payload = match kind {
        KIND_F32 => {
            if len % 4 != 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "f32 frame from rank {src} claims {len} payload bytes, \
                         not a multiple of 4 — refusing to drop trailing bytes"
                    ),
                ));
            }
            let n = (len / 4) as usize;
            let mut v = pool.map_or_else(|| vec![0f32; n], |p| p.take(n));
            read_f32_body(r, &mut v, &mut crc)?;
            Some(Payload::f32(v))
        }
        KIND_BYTES | KIND_BYE | KIND_DATA_REQ | KIND_DATA_BATCH | KIND_DATA_EOE => {
            let mut body = vec![0u8; len as usize];
            r.read_exact(&mut body)?;
            crc.update(&body);
            (kind != KIND_BYE).then(|| Payload::bytes(body))
        }
        k => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown frame kind {k}"),
            ))
        }
    };
    let mut trailer = [0u8; 4];
    r.read_exact(&mut trailer)?;
    let want = u32::from_le_bytes(trailer);
    let got = crc.finish();
    if got != want {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame CRC mismatch from rank {src}: got {got:#010x}, want {want:#010x}"),
        ));
    }
    match payload {
        Some(payload) if kind >= KIND_DATA_REQ => {
            Ok(FrameRead::Service { kind, msg: WireMsg { src, comm_id, tag, payload } })
        }
        Some(payload) => Ok(FrameRead::Msg(WireMsg { src, comm_id, tag, payload })),
        None => Ok(FrameRead::Bye),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, tag: u32, payload: Payload) -> WireMsg {
        WireMsg { src, comm_id: 7, tag, payload }
    }

    /// Concatenate the vectored pieces of one message — what the socket
    /// would see from the copy-free path.
    fn vectored_bytes(m: &WireMsg) -> Vec<u8> {
        let mut out = Vec::new();
        write_frames_vectored(&mut out, std::slice::from_ref(m)).expect("vec sink");
        out
    }

    #[test]
    fn frame_roundtrip_bytes_and_f32() {
        for payload in [Payload::bytes(vec![1, 2, 3]), Payload::f32(vec![1.5, -2.25, 0.0])] {
            let frame = encode_frame(3, 7, 9, &payload);
            let FrameRead::Msg(back) = read_frame(&mut frame.as_slice()).expect("decode") else {
                panic!("expected a data frame");
            };
            assert_eq!((back.src, back.comm_id, back.tag), (3, 7, 9));
            match (&payload, &back.payload) {
                (Payload::Bytes(a), Payload::Bytes(b)) => assert_eq!(a, b),
                (Payload::F32(a), Payload::F32(b)) => {
                    let ab: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
                    let bb: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(ab, bb, "f32 payload must survive bit-exactly");
                }
                _ => panic!("payload kind changed in flight"),
            }
        }
    }

    #[test]
    fn vectored_write_matches_staged_encoder_byte_for_byte() {
        // Odd lengths, empty payloads, NaN/inf bit patterns: the copy-free
        // path must put exactly the staged encoder's bytes on the wire.
        let payloads = [
            Payload::bytes(vec![]),
            Payload::bytes(vec![0xAB]),
            Payload::bytes((0..=255).collect()),
            Payload::f32(vec![]),
            Payload::f32(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1.0e-38]),
            Payload::f32((0..1025).map(|i| (i as f32).sin()).collect()),
            // 1 MiB: the CRC of this one runs the hardware kernel's main loop.
            Payload::f32((0..1 << 18).map(|i| (i as f32 * 1e-3).cos()).collect()),
        ];
        for (i, payload) in payloads.into_iter().enumerate() {
            let m = msg(3 + i, i as u32, payload);
            let staged = encode_frame(m.src, m.comm_id, m.tag, &m.payload);
            assert_eq!(vectored_bytes(&m), staged, "payload #{i}");
        }
    }

    #[test]
    fn batched_vectored_write_is_frame_concatenation() {
        let msgs = vec![
            msg(0, 1, Payload::bytes(vec![9; 7])),
            msg(1, 2, Payload::f32(vec![0.5; 33])),
            msg(2, 3, Payload::bytes(vec![])),
        ];
        let mut batched = Vec::new();
        write_frames_vectored(&mut batched, &msgs).expect("vec sink");
        let mut seq = Vec::new();
        for m in &msgs {
            seq.extend_from_slice(&encode_frame(m.src, m.comm_id, m.tag, &m.payload));
        }
        assert_eq!(batched, seq);
    }

    #[test]
    fn write_all_vectored_survives_short_writes() {
        /// Sink that accepts at most 3 bytes per call.
        struct Dribble(Vec<u8>);
        impl io::Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                // Only ever consume from the first slice, partially.
                self.write(&bufs[0])
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let parts: [&[u8]; 5] = [b"hello", b"", b" ", b"vectored", b" world"];
        let mut sink = Dribble(Vec::new());
        write_all_vectored(&mut sink, &parts).expect("all written");
        assert_eq!(sink.0, b"hello vectored world");
    }

    #[test]
    fn crc_trailer_catches_corruption() {
        let frame = encode_frame(1, 0, 2, &Payload::bytes(vec![0xAA; 64]));
        // Flip one payload bit.
        for pos in [FRAME_HEAD_LEN, frame.len() - 5] {
            let mut bad = frame.clone();
            bad[pos] ^= 0x10;
            let err = read_frame(&mut bad.as_slice()).expect_err("must reject");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }

    #[test]
    fn insane_length_rejected_before_allocation() {
        let mut frame = encode_frame(0, 0, 0, &Payload::bytes(vec![1]));
        // Overwrite the length field with 2^62.
        let len_off = 4 + 17;
        frame[len_off..len_off + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        let err = read_frame(&mut frame.as_slice()).expect_err("must reject");
        assert!(err.to_string().contains("corrupt length"), "{err}");
    }

    #[test]
    fn misaligned_f32_length_rejected_with_structured_error() {
        // Hand-build an f32 frame whose length is NOT a multiple of 4 but
        // whose CRC is valid, so only the alignment check can reject it:
        // the decoder must refuse (naming the bad length) rather than
        // panic or silently drop the trailing bytes.
        let body = [0x11u8, 0x22, 0x33, 0x44, 0x55, 0x66]; // 6 bytes
        let parts = frame_parts(2, 7, 9, KIND_F32, &body);
        let mut frame = Vec::new();
        frame.extend_from_slice(&parts.head);
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&parts.crc);
        let err = read_frame(&mut frame.as_slice()).expect_err("must reject");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let text = err.to_string();
        assert!(
            text.contains("6 payload bytes") && text.contains("multiple of 4"),
            "error must name the bad length: {text}"
        );
        assert!(text.contains("rank 2"), "error must name the source: {text}");
    }

    #[test]
    fn service_frames_roundtrip_with_kind_intact() {
        let frames = vec![
            (KIND_DATA_REQ, msg(2, 5, Payload::bytes(vec![]))),
            (KIND_DATA_BATCH, msg(0, 6, Payload::bytes((0..=200).collect()))),
            (KIND_DATA_EOE, msg(1, 0xFFFF_FFFF, Payload::bytes(vec![1]))),
        ];
        let mut stream = Vec::new();
        write_service_frames_vectored(&mut stream, &frames).expect("vec sink");
        let mut r = stream.as_slice();
        for (kind, m) in &frames {
            let FrameRead::Service { kind: k, msg: back } = read_frame(&mut r).expect("decode")
            else {
                panic!("expected a service frame");
            };
            assert_eq!(k, *kind);
            assert_eq!((back.src, back.comm_id, back.tag), (m.src, m.comm_id, m.tag));
            assert_eq!(back.payload.as_bytes(), m.payload.as_bytes());
        }
        assert!(matches!(read_frame(&mut r).expect("eof"), FrameRead::Eof));
        // Truly unknown kinds are still rejected.
        let parts = frame_parts(0, 0, 0, 9, b"x");
        let mut bad = Vec::new();
        bad.extend_from_slice(&parts.head);
        bad.extend_from_slice(b"x");
        bad.extend_from_slice(&parts.crc);
        let err = read_frame(&mut bad.as_slice()).expect_err("must reject");
        assert!(err.to_string().contains("unknown frame kind 9"), "{err}");
    }

    #[test]
    fn bye_and_bare_eof_are_distinct_closes() {
        // BYE is a graceful close; bare EOF means the peer died without
        // shutting down — the reader turns only the latter into LinkDown.
        let bye = encode_bye(5);
        assert!(matches!(read_frame(&mut bye.as_slice()).expect("decode"), FrameRead::Bye));
        assert!(matches!(read_frame(&mut [].as_slice()).expect("eof"), FrameRead::Eof));
    }

    #[test]
    fn trailers_match_goldens_from_the_build_before_the_hardware_crc() {
        // Printed by a binary of the parent commit (slicing-by-8 was the
        // only kernel): the trailer of a 1 MiB and of a 400-byte f32 frame.
        // A frame it wrote must verify here, and one written here must
        // carry the trailer it would have computed.
        let vals: Vec<f32> = (0..1usize << 18).map(|i| i as f32 * 0.5 - 1000.0).collect();
        let body = f32s_as_le_bytes(&vals);
        for (len, golden) in [(body.len(), 0xe73d_9723u32), (400, 0xe9fc_8d43)] {
            let parts = frame_parts(3, 7, 9, KIND_F32, &body[..len]);
            assert_eq!(u32::from_le_bytes(parts.crc), golden, "{len}-byte body");
            let mut frame = parts.head.to_vec();
            frame.extend_from_slice(&body[..len]);
            frame.extend_from_slice(&golden.to_le_bytes());
            let FrameRead::Msg(m) = read_frame(&mut frame.as_slice()).expect("verifies") else {
                panic!("expected a data frame");
            };
            assert_eq!(m.payload.as_f32().len(), len / 4);
        }
    }

    #[test]
    fn stream_cut_inside_a_frame_is_an_error_not_a_clean_eof() {
        // Only offset 0 is a frame boundary. A cut anywhere in the head —
        // including the first 1–3 magic bytes — or in the body must not be
        // mistaken for the peer having closed between frames.
        let frame = encode_frame(1, 7, 3, &Payload::f32(vec![0.25; 4]));
        assert!(matches!(read_frame(&mut &frame[..0]).expect("eof"), FrameRead::Eof));
        for cut in 1..FRAME_HEAD_LEN + 8 {
            let err = read_frame(&mut &frame[..cut]).expect_err("torn frame");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}: {err}");
            if cut < FRAME_HEAD_LEN {
                let text = err.to_string();
                assert!(text.contains(&format!("ended {cut} bytes into")), "cut {cut}: {text}");
            }
        }
        assert!(matches!(read_frame(&mut frame.as_slice()).expect("whole"), FrameRead::Msg(_)));
    }

    #[test]
    fn pooled_read_delivers_the_frames_length_and_bits_from_any_recycled_buffer() {
        let vals: Vec<f32> =
            (0..37).map(|i| (i as f32).sin() * 1e3).chain([f32::NAN, -0.0]).collect();
        let n = vals.len();
        let frame = encode_frame(1, 2, 3, &Payload::f32(vals.clone()));
        // (length, capacity) of the one pooled buffer, holding garbage:
        // shorter and longer than the frame, fitting and not.
        let pooled = [(0, 2 * n), (3, n + 3), (n - 1, n - 1), (n, n), (2 * n, 2 * n), (n, 4 * n)];
        for (len, cap) in pooled {
            let pool = BufPool::default();
            let mut old = Vec::with_capacity(cap);
            old.resize(len, f32::from_bits(0x7fc0_dead));
            pool.put(old);
            let FrameRead::Msg(m) =
                read_frame_with(&mut frame.as_slice(), Some(&pool)).expect("decode")
            else {
                panic!("expected a data frame");
            };
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(m.payload.as_f32()), bits(&vals), "pooled buffer {len}/{cap}");
            let fits = cap >= n && cap / 2 <= n;
            assert_eq!(pool.is_empty(), fits, "pooled buffer {len}/{cap} taken iff it fits");
        }
    }

    #[test]
    fn bad_lengths_are_rejected_before_a_pooled_buffer_is_taken() {
        let pool = BufPool::default();
        pool.put(vec![0.0; 8]);
        let mut bomb = encode_frame(0, 0, 0, &Payload::f32(vec![1.0]));
        bomb[21..29].copy_from_slice(&(1u64 << 62).to_le_bytes());
        let body = [0x11u8; 6];
        let parts = frame_parts(2, 7, 9, KIND_F32, &body);
        let misaligned = [&parts.head[..], &body, &parts.crc].concat();
        for frame in [bomb, misaligned] {
            let err = read_frame_with(&mut frame.as_slice(), Some(&pool)).expect_err("must reject");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert_eq!(pool.len(), 1, "rejected before a buffer was taken: {err}");
        }
    }

    #[test]
    fn f32_decode_is_bitwise_through_the_direct_read() {
        let vals = vec![f32::NAN, -f32::NAN, f32::INFINITY, -0.0, f32::MIN_POSITIVE, 7.25];
        let frame = encode_frame(0, 0, 0, &Payload::f32(vals.clone()));
        let FrameRead::Msg(m) = read_frame(&mut frame.as_slice()).expect("decode") else {
            panic!("expected data frame");
        };
        let got: Vec<u32> = m.payload.as_f32().iter().map(|x| x.to_bits()).collect();
        let want: Vec<u32> = vals.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want);
    }
}
