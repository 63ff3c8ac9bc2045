//! Wire-discipline tests: every frame kind round-trips, and *no* input
//! — truncated, garbage, oversized, wrong-versioned — makes the decoder
//! panic, hang, or read unboundedly. The decoder inherits the engine
//! codec's totality contract, and these tests pin that it actually
//! holds at the frame layer too. Beyond truncation and junk, a seeded
//! mutation suite flips bits in and splices bytes into every sample
//! frame: each mutant is an error or a well-formed frame.

use std::io::{Cursor, Read};

use slx_core::memory::SmallRng;

use slx_server::wire::{
    read_frame, read_hello, write_frame, write_hello, CheckRequest, Frame, ProgressFrame,
    VerdictFrame, WireError, MAX_FRAME, PROTOCOL_VERSION,
};

fn sample_frames() -> Vec<Frame> {
    vec![
        Frame::Submit(CheckRequest {
            request_id: "fig1a-depth12".into(),
            scenario: "of-consensus-safety".into(),
            depth: 12,
            config_budget: Some(100_000),
            mem_budget: None,
            progress_every: 3,
        }),
        Frame::Cancel {
            request_id: "fig1a-depth12".into(),
        },
        Frame::Progress(ProgressFrame {
            request_id: "fig1a-depth12".into(),
            depth: 7,
            configs: 1234,
            transitions: 5678,
            dedup_hits: 444,
            peak_frontier: 99,
            elapsed_micros: 1_000_001,
            checkpoints_written: 3,
            resumed_from_depth: Some(4),
        }),
        Frame::Verdict(VerdictFrame {
            request_id: "fig1a-depth12".into(),
            holds: true,
            findings: 0,
            configs: 40_000,
            transitions: 160_000,
            dedup_hits: 120_000,
            peak_frontier: 9_000,
            truncated: false,
            elapsed_micros: 2_500_000,
            resumed_from_depth: None,
        }),
        Frame::Error {
            request_id: "bad".into(),
            message: "unknown scenario \"nope\"".into(),
        },
    ]
}

#[test]
fn every_frame_kind_round_trips() {
    for frame in sample_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("write");
        let mut cursor = Cursor::new(buf);
        let back = read_frame(&mut cursor)
            .expect("read")
            .expect("one frame present");
        assert_eq!(back, frame);
        // And the stream is exactly consumed: the next read is clean EOF.
        assert!(matches!(read_frame(&mut cursor), Ok(None)));
    }
}

#[test]
fn several_frames_stream_back_in_order() {
    let frames = sample_frames();
    let mut buf = Vec::new();
    for frame in &frames {
        write_frame(&mut buf, frame).expect("write");
    }
    let mut cursor = Cursor::new(buf);
    for frame in &frames {
        assert_eq!(read_frame(&mut cursor).expect("read").as_ref(), Some(frame));
    }
    assert!(matches!(read_frame(&mut cursor), Ok(None)));
}

#[test]
fn every_truncation_of_every_frame_is_an_error_never_a_panic() {
    // Chop each encoded frame (length prefix + body) at every byte
    // boundary: a partial length prefix, a partial body, a partial
    // string inside the body — all must yield Err, never Ok and never a
    // panic. Truncation *inside* a frame is not a clean hangup.
    for frame in sample_frames() {
        let mut full = Vec::new();
        write_frame(&mut full, &frame).expect("write");
        for cut in 1..full.len() {
            let mut cursor = Cursor::new(&full[..cut]);
            let result = read_frame(&mut cursor);
            assert!(
                result.is_err(),
                "cut at {cut}/{} must error, got {result:?}",
                full.len()
            );
        }
    }
}

#[test]
fn garbage_bodies_are_rejected_not_trusted() {
    // A well-formed length prefix carrying junk: unknown tag, empty
    // body, a known tag with a hostile payload. SplitMix-ish bytes keep
    // it deterministic.
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut rand_byte = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (z ^ (z >> 27)) as u8
    };
    for len in [0usize, 1, 2, 7, 64, 1000] {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(len as u32).to_le_bytes());
        for _ in 0..len {
            wire.push(rand_byte());
        }
        let result = read_frame(&mut Cursor::new(wire));
        assert!(result.is_err(), "garbage body of {len} bytes: {result:?}");
    }
    // A known tag (Submit = 1) followed by a string length that claims
    // more bytes than exist must be truncation, not an overread.
    let mut body = vec![1u8];
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut wire = Vec::new();
    wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
    wire.extend_from_slice(&body);
    assert!(read_frame(&mut Cursor::new(wire)).is_err());
}

#[test]
fn trailing_bytes_after_a_valid_payload_are_rejected() {
    // Layout disagreement detector: a frame body longer than its
    // payload decodes must be refused, not silently accepted.
    let frame = Frame::Cancel {
        request_id: "x".into(),
    };
    let mut body = frame.encode_body();
    body.push(0xAB);
    let mut wire = Vec::new();
    wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
    wire.extend_from_slice(&body);
    let result = read_frame(&mut Cursor::new(wire));
    assert!(
        matches!(result, Err(WireError::Malformed(_))),
        "trailing bytes: {result:?}"
    );
}

#[test]
fn oversized_length_prefixes_fail_before_any_body_read() {
    // A hostile 4 GiB length must error immediately — the reader after
    // the prefix sees *zero* reads, proving no allocation-by-attacker.
    use std::io::Read as _;
    struct NoBody;
    impl std::io::Read for NoBody {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            panic!("body bytes must never be read for an oversized frame");
        }
    }
    let len = (MAX_FRAME as u32) + 1;
    let prefix = len.to_le_bytes();
    let mut reader = Cursor::new(prefix.to_vec()).chain(NoBody);
    let result = read_frame(&mut reader);
    assert!(
        matches!(result, Err(WireError::Oversized { .. })),
        "{result:?}"
    );

    let mut reader2 = Cursor::new(u32::MAX.to_le_bytes().to_vec()).chain(NoBody);
    assert!(matches!(
        read_frame(&mut reader2),
        Err(WireError::Oversized { .. })
    ));
}

#[test]
fn hello_exchange_validates_magic_and_version() {
    let mut good = Vec::new();
    write_hello(&mut good).expect("write hello");
    assert!(read_hello(&mut Cursor::new(good.clone())).is_ok());

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        read_hello(&mut Cursor::new(bad_magic)),
        Err(WireError::BadMagic)
    ));

    let mut bad_version = good.clone();
    bad_version[8] = PROTOCOL_VERSION + 1;
    assert!(matches!(
        read_hello(&mut Cursor::new(bad_version)),
        Err(WireError::Version(v)) if v == PROTOCOL_VERSION + 1
    ));

    // Truncated hello = error, not a hang (Cursor EOFs immediately;
    // a real socket would block, but the contract is read_exact's).
    assert!(read_hello(&mut Cursor::new(good[..5].to_vec())).is_err());
}

#[test]
fn request_id_validation_rejects_path_escapes() {
    use slx_server::wire::validate_request_id;
    for ok in ["a", "fig1a-depth12", "A.B_c-9", &"x".repeat(64)] {
        assert!(validate_request_id(ok).is_ok(), "{ok:?}");
    }
    for bad in [
        "",
        ".",
        "..",
        ".hidden",
        "a/b",
        "../escape",
        "a b",
        "a\0b",
        "ü",
        &"x".repeat(65),
    ] {
        assert!(validate_request_id(bad).is_err(), "{bad:?}");
    }
}

/// Hands out `inner`'s bytes, counting them.
struct Counted<R> {
    inner: R,
    read: usize,
}

impl<R: Read> Read for Counted<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read += n;
        Ok(n)
    }
}

/// LEB128 forms at and past the edge: `u64::MAX` in its ten bytes, ten
/// continuation bytes with no end, a tenth byte carrying more than the
/// last value bit, `u32::MAX`, and `u32::MAX + 1` (five bytes).
const MAXIMAL_VARINTS: [&[u8]; 5] = [
    &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01],
    &[0xFF; 10],
    &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7F],
    &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F],
    &[0x80, 0x80, 0x80, 0x80, 0x10],
];

/// Mutants of one encoded frame (`wire`: length prefix, then body): one
/// to three bit flips anywhere, prefix included; and splices into the
/// body — up to four bytes cut at a random point and random bytes or a
/// maximal varint put in their place — under a prefix that states the
/// new body's length, so the body decoder sees all of it.
fn mutants(wire: &[u8], rng: &mut SmallRng) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for _ in 0..96 {
        let mut flipped = wire.to_vec();
        for _ in 0..=rng.gen_index(3) {
            let bit = rng.gen_index(8 * wire.len());
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        out.push(flipped);
    }
    let body = &wire[4..];
    for round in 0..96 {
        let at = rng.gen_index(body.len() + 1);
        let cut = rng.gen_index(5).min(body.len() - at);
        let insert: Vec<u8> = if round % 2 == 0 {
            (0..=rng.gen_index(8))
                .map(|_| rng.next_u64() as u8)
                .collect()
        } else {
            MAXIMAL_VARINTS[rng.gen_index(MAXIMAL_VARINTS.len())].to_vec()
        };
        let mut spliced = body[..at].to_vec();
        spliced.extend_from_slice(&insert);
        spliced.extend_from_slice(&body[at + cut..]);
        let mut mutant = (spliced.len() as u32).to_le_bytes().to_vec();
        mutant.extend_from_slice(&spliced);
        out.push(mutant);
    }
    out
}

#[test]
fn every_mutant_of_every_frame_is_an_error_or_a_well_formed_frame() {
    let mut rng = SmallRng::seed_from_u64(14);
    let (mut decoded, mut refused) = (0, 0);
    for frame in sample_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).expect("write");
        for mutant in mutants(&wire, &mut rng) {
            let outcome = std::panic::catch_unwind(|| {
                let result = read_frame(&mut Cursor::new(&mutant));
                // The same bytes with no end after them: the decoder may
                // not take more than a prefix and `MAX_FRAME` of them.
                let mut endless = Counted {
                    inner: Cursor::new(&mutant).chain(std::io::repeat(0xA5)),
                    read: 0,
                };
                let _ = read_frame(&mut endless);
                (result, endless.read)
            });
            let Ok((result, read)) = outcome else {
                panic!("read_frame panicked on the mutant {mutant:02x?} of {frame:?}");
            };
            assert!(read <= 4 + MAX_FRAME, "{read} bytes read for {mutant:02x?}");
            match result {
                Err(_) => refused += 1,
                Ok(None) => panic!("a non-empty mutant read as a clean hangup: {mutant:02x?}"),
                Ok(Some(back)) => {
                    // Well-formed: what the writer emits for the decoded
                    // frame is exactly the body it was decoded from.
                    let len = u32::from_le_bytes(mutant[..4].try_into().unwrap()) as usize;
                    assert_eq!(
                        back.encode_body(),
                        mutant[4..4 + len],
                        "{mutant:02x?} decoded as {back:?}"
                    );
                    decoded += 1;
                }
            }
        }
    }
    // Both outcomes occur: a flipped count still decodes, a flipped tag
    // does not.
    assert!(
        decoded > 0 && refused > 0,
        "{decoded} decoded, {refused} refused"
    );
}
