//! The benchmark's own input generator. Everything the program under
//! test receives is made here from `--seed`; nothing comes from the
//! library's simulators, so a library change cannot move a workload.
//!
//! The streams are built so that the *cost profile* does not depend on
//! the seed — only the values do: at every step exactly half of the
//! persons walk, exactly half of them live on the `x > y` side of the
//! room (the Figure 4 policy's row condition), and a standing phase
//! always lasts [`DWELL_STEPS`] steps. A seed therefore changes
//! positions and jitter but not how many rows pass the policy's filter
//! or how many groups the aggregation keeps.

use paradise_engine::{DataType, Frame, Schema, Value};

/// splitmix64 (Steele, Lea, Flood 2014): one 64-bit state word.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-half, half)`.
    fn jitter(&mut self, half: f64) -> f64 {
        (self.unit() * 2.0 - 1.0) * half
    }
}

/// Persons tracked in the smart room.
pub const PERSONS: usize = 10;
/// Steps a person stands (or walks) before switching. A standing phase
/// is one `(x, y)` group of `DWELL_STEPS` rows with `z = 1.25`, so its
/// `SUM(z)` is 312.5 — above the Figure 4 threshold of 100.
pub const DWELL_STEPS: i64 = 250;
const ROOM: f64 = 10.0;

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

struct Person {
    x: f64,
    y: f64,
    /// Lives on the `x > y` side of the room's diagonal.
    x_above_y: bool,
}

impl Person {
    /// Mirror the (already rounded) position onto the person's own side
    /// of the diagonal.
    fn keep_side(&mut self) {
        if (self.x > self.y) != self.x_above_y {
            std::mem::swap(&mut self.x, &mut self.y);
        }
        if self.x == self.y {
            if self.x_above_y {
                self.x += 0.001;
            } else {
                self.y += 0.001;
            }
        }
    }
}

/// Smart-room position stream `(x, y, z, t)`: one row per person per
/// step, `t` counting steps from 1.
pub struct RoomGen {
    rng: SplitMix64,
    persons: Vec<Person>,
    step: i64,
}

impl RoomGen {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let persons = (0..PERSONS)
            .map(|i| {
                let mut p = Person {
                    x: round3(rng.unit() * ROOM),
                    y: round3(rng.unit() * ROOM),
                    x_above_y: i < PERSONS / 2,
                };
                p.keep_side();
                p
            })
            .collect();
        RoomGen {
            rng,
            persons,
            step: 0,
        }
    }

    pub fn schema() -> Schema {
        Schema::from_pairs(&[
            ("x", DataType::Float),
            ("y", DataType::Float),
            ("z", DataType::Float),
            ("t", DataType::Integer),
        ])
    }

    /// The next `rows` rows as plain numbers `[x, y, z, t]` (`rows` must
    /// be a multiple of [`PERSONS`]). No library code runs here.
    pub fn rows(&mut self, rows: usize) -> Vec<Vec<f64>> {
        assert_eq!(rows % PERSONS, 0, "room batches hold whole steps");
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows / PERSONS {
            self.step += 1;
            let phase = (self.step - 1) / DWELL_STEPS;
            for (i, p) in self.persons.iter_mut().enumerate() {
                let walking = (phase + i as i64) % 2 == 0;
                let z = if walking {
                    p.x = round3((p.x + self.rng.jitter(0.5)).clamp(0.0, ROOM));
                    p.y = round3((p.y + self.rng.jitter(0.5)).clamp(0.0, ROOM));
                    p.keep_side();
                    1.1 + self.rng.jitter(0.15)
                } else {
                    1.25
                };
                out.push(vec![p.x, p.y, round3(z), self.step as f64]);
            }
        }
        out
    }

    /// The next `rows` rows as a frame.
    pub fn frame(&mut self, rows: usize) -> Frame {
        let out = self
            .rows(rows)
            .into_iter()
            .map(|r| {
                vec![
                    Value::Float(r[0]),
                    Value::Float(r[1]),
                    Value::Float(r[2]),
                    Value::Int(r[3] as i64),
                ]
            })
            .collect();
        Frame::new(Self::schema(), out).expect("generated rows match the schema")
    }
}

/// Many-users stream `(uid, v)`: `uid` uniform over `0..users` (the
/// first `users` rows carry every uid once, so any window at least
/// that long holds every user), `v` uniform over `0..100`.
pub struct UsersGen {
    rng: SplitMix64,
    users: u64,
    emitted: u64,
}

impl UsersGen {
    pub fn new(seed: u64, users: u64) -> Self {
        UsersGen {
            rng: SplitMix64::new(seed),
            users,
            emitted: 0,
        }
    }

    pub fn schema() -> Schema {
        Schema::from_pairs(&[("uid", DataType::Integer), ("v", DataType::Integer)])
    }

    pub fn frame(&mut self, rows: usize) -> Frame {
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            let uid = if self.emitted < self.users {
                self.emitted
            } else {
                self.rng.next_u64() % self.users
            };
            self.emitted += 1;
            let v = self.rng.next_u64() % 100;
            out.push(vec![Value::Int(uid as i64), Value::Int(v as i64)]);
        }
        Frame::new(Self::schema(), out).expect("generated rows match the schema")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vector() {
        // First outputs for seed 0 from the reference implementation.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(r.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn same_seed_same_frames_other_seed_other_frames() {
        let a = RoomGen::new(7).frame(500);
        assert_eq!(a, RoomGen::new(7).frame(500));
        assert_ne!(a, RoomGen::new(8).frame(500));
        let u = UsersGen::new(7, 50).frame(300);
        assert_eq!(u, UsersGen::new(7, 50).frame(300));
        assert_ne!(u, UsersGen::new(8, 50).frame(300));
    }

    #[test]
    fn batches_continue_the_stream() {
        let mut whole = RoomGen::new(3);
        let mut parts = RoomGen::new(3);
        let mut joined = parts.frame(200);
        joined.append(parts.frame(300)).unwrap();
        assert_eq!(whole.frame(500), joined);
    }

    #[test]
    fn cost_profile_is_seed_independent() {
        for seed in [1, 2, 99] {
            let f = RoomGen::new(seed).frame(2 * DWELL_STEPS as usize * PERSONS);
            let mut x_above_y = 0;
            let mut standing = 0;
            for row in f.iter_rows() {
                let (Value::Float(x), Value::Float(y), Value::Float(z)) =
                    (&row[0], &row[1], &row[2])
                else {
                    panic!("room rows are floats");
                };
                x_above_y += usize::from(x > y);
                standing += usize::from(*z == 1.25);
            }
            assert_eq!(x_above_y * 2, f.len(), "half the rows pass x > y");
            // a walker's rounded z can land on 1.25 too, so at least half
            assert!(standing * 2 >= f.len() && standing * 2 < f.len() + f.len() / 20);
        }
    }

    #[test]
    fn users_window_holds_every_user() {
        let f = UsersGen::new(5, 40).frame(40);
        let uids: Vec<Value> = f.column_values(0).collect();
        assert_eq!(uids, (0..40).map(Value::Int).collect::<Vec<_>>());
    }
}
