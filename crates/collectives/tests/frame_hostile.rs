//! Hostile bytes against the DCTP frame decoder. Frames reach a rank (and a
//! data-plane client or server) over TCP, so `read_frame` must answer any
//! damaged frame with `Err` — never a panic, never a frame that decodes to
//! something else. Only a stream that ends exactly at a frame boundary is
//! `Eof`.

use dcnn_collectives::transport::wire::{
    encode_bye, encode_frame, read_frame, write_service_frames_vectored, FrameRead, KIND_DATA_BATCH,
};
use dcnn_collectives::transport::{Payload, WireMsg};

/// One valid small frame of each kind: bytes, `f32`, data-plane service
/// and BYE.
fn frames() -> Vec<(&'static str, Vec<u8>)> {
    let batch = WireMsg { src: 1, comm_id: 0xA5A5, tag: 6, payload: Payload::bytes(vec![7; 9]) };
    let mut service = Vec::new();
    write_service_frames_vectored(&mut service, &[(KIND_DATA_BATCH, batch)]).expect("vec sink");
    vec![
        ("bytes", encode_frame(3, 7, 9, &Payload::bytes(vec![1, 2, 3, 4, 5]))),
        ("f32", encode_frame(2, 1, 4, &Payload::f32(vec![1.5, -0.0, f32::NAN]))),
        ("service", service),
        ("bye", encode_bye(5)),
    ]
}

#[test]
fn every_truncation_is_eof_at_zero_and_an_error_elsewhere() {
    for (name, frame) in frames() {
        let whole = read_frame(&mut frame.as_slice()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let kind_kept = match name {
            "service" => matches!(whole, FrameRead::Service { kind: KIND_DATA_BATCH, .. }),
            "bye" => matches!(whole, FrameRead::Bye),
            _ => matches!(whole, FrameRead::Msg(_)),
        };
        assert!(kind_kept, "{name} decoded as {whole:?}");
        assert!(matches!(read_frame(&mut &frame[..0]), Ok(FrameRead::Eof)), "{name}");
        for cut in 1..frame.len() {
            let got = read_frame(&mut &frame[..cut]);
            assert!(got.is_err(), "{name} cut at {cut} of {}: {got:?}", frame.len());
        }
    }
}

#[test]
fn every_single_byte_mutation_is_an_error() {
    // CRC-32 catches every single-byte error in the header after the magic,
    // the body and the trailer; the magic, kind and length checks catch the
    // rest — a changed length either runs off the end or moves the trailer.
    for (name, frame) in frames() {
        for at in 0..frame.len() {
            for value in 0..=255u8 {
                if value == frame[at] {
                    continue;
                }
                let mut bad = frame.clone();
                bad[at] = value;
                let got = read_frame(&mut bad.as_slice());
                assert!(got.is_err(), "{name} byte {at} = {value:#04x}: {got:?}");
            }
        }
    }
}
