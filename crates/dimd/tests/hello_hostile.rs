//! Hostile bytes against the data-plane handshake. A blob server decodes a
//! `Hello` from whatever a client sends, so `Hello::decode` must answer a
//! damaged handshake with `Err`, never a panic.

use dcnn_dimd::Hello;

fn hello() -> Hello {
    Hello {
        rank: 3,
        world: 8,
        batch: 32,
        requests_per_epoch: 100,
        epochs: 90,
        shuffle_every: 1,
        segment_bytes: 1 << 31,
    }
}

#[test]
fn every_truncation_of_a_handshake_is_an_error() {
    let enc = hello().encode();
    assert_eq!(Hello::decode(&enc), Ok(hello()));
    for cut in 0..enc.len() {
        assert!(Hello::decode(&enc[..cut]).is_err(), "cut at {cut}");
    }
    let mut long = enc.clone();
    long.push(0);
    assert!(Hello::decode(&long).is_err(), "a trailing byte");
}

#[test]
fn a_damaged_magic_or_version_is_an_error_and_no_byte_panics() {
    let enc = hello().encode();
    for at in 0..enc.len() {
        for value in 0..=255u8 {
            if value == enc[at] {
                continue;
            }
            let mut bad = enc.clone();
            bad[at] = value;
            let got = Hello::decode(&bad);
            // Magic and version guard the layout; past them every byte is a
            // field value, so a change decodes to a different handshake.
            if at < 8 {
                assert!(got.is_err(), "byte {at} = {value:#04x}: {got:?}");
            } else {
                assert_ne!(got.expect("a field value"), hello(), "byte {at} = {value:#04x}");
            }
        }
    }
}
