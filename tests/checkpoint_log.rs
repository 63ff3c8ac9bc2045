//! A checkpoint writes only what is new. At every commit the visited
//! log beside the image is exactly 16 bytes per visited digest, and the
//! image itself carries no visited section: on a space whose visited set
//! grows by a whole level per commit while its frontier stays one level
//! wide, the image keeps its first commit's size, give or take a few
//! varint bytes. A store that rewrote the visited set per image again
//! would fail either count; nothing here is timed.

use safety_liveness_exclusion::engine::{
    digest128_of, Checker, CheckpointStore, Digest, Expansion, StateSpace,
};

/// `WIDTH` states per level, every state of a level linked to every
/// state of the next, down to level `DEPTH`.
struct Layers;

const WIDTH: u32 = 32;
const DEPTH: u32 = 40;

impl StateSpace for Layers {
    type State = (u32, u32);
    type Finding = ();

    fn digest(&self, state: &Self::State) -> Digest {
        digest128_of(state)
    }

    fn expand(&self, &(level, _): &Self::State, _depth: usize, ctx: &mut Expansion<Self>) {
        if level < DEPTH {
            for i in 0..WIDTH {
                ctx.push((level + 1, i));
            }
        }
    }
}

#[test]
fn every_commit_appends_only_the_new_digests_and_the_image_holds_none() {
    let dir = std::env::temp_dir().join(format!("slx-checkpoint-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut first_image = None;
    let mut commits = 0;
    let out = Checker::parallel_bfs(1)
        .with_shards(8)
        .with_checkpoint(&dir, 1)
        .try_run_observed(
            &Layers,
            vec![(0, 0)],
            |_| false,
            |depth, stats| {
                if depth == 0 {
                    return true;
                }
                commits += 1;
                let mut names: Vec<String> = std::fs::read_dir(&dir)
                    .expect("store dir")
                    .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
                    .collect();
                names.sort();
                assert_eq!(names.len(), 2, "the image and one log: {names:?}");
                let log = dir.join(&names[1]);
                let visited: usize = stats.shard_occupancy.iter().sum();
                assert_eq!(
                    std::fs::metadata(&log).expect("log").len(),
                    16 * visited as u64,
                    "level {depth}: the log is 16 bytes per visited digest"
                );
                let image = std::fs::metadata(CheckpointStore::file_path(&dir))
                    .expect("image")
                    .len();
                let first = *first_image.get_or_insert(image);
                assert!(
                    image <= first + 16,
                    "level {depth}: a {image}-byte image over {visited} digests \
                     (the first was {first} bytes) holds a visited section"
                );
                true
            },
        )
        .expect("the checkpointed run");
    assert_eq!(commits, DEPTH);
    assert_eq!(
        out.stats.shard_occupancy.iter().sum::<usize>(),
        1 + (WIDTH * DEPTH) as usize
    );
    std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");
}
