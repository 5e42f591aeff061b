//! Seeded request streams and arrival schedules. The daemon receives
//! only the lines generated here; the same seed always yields the same
//! bytes and the same schedule.

/// SplitMix64: small, seedable, std-only.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The two serve traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Paper tables by name; 95 % of queries from a 128-plan hot pool.
    Hot,
    /// 16 custom K = 20 tables by explicit parameters; every ρ fresh.
    Cold,
}

const PLATFORMS: [&str; 4] = ["hera", "atlas", "coastal", "coastal-ssd"];
const PROCESSORS: [&str; 2] = ["xscale", "crusoe"];
const HOT_POOL: usize = 128;
const HOT_PERCENT: u64 = 95;
const COLD_TABLES: usize = 16;
const COLD_SPEEDS: usize = 20;

/// A batch of request lines in one contiguous buffer (what the sender
/// writes) with the end offset of each line.
#[derive(Debug, Default, Clone)]
pub struct Lines {
    /// Concatenated lines, each ending in `\n`.
    pub bytes: Vec<u8>,
    /// `ends[i]` is the end offset (exclusive) of line `i`.
    pub ends: Vec<usize>,
    /// Request id of line 0; line `i` carries `first_id + i`.
    pub first_id: u64,
}

impl Lines {
    /// Number of lines.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Line `i` without its newline.
    pub fn line(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        std::str::from_utf8(&self.bytes[start..self.ends[i] - 1])
            .expect("generated lines are ASCII")
    }
}

/// The request generator of one serve workload and seed. Fresh ρ values
/// come from a counter, so they are unique across every phase of a run
/// and never coalesce in the daemon's quantized plan cache.
pub struct Gen {
    mix: Mix,
    rng: Rng,
    /// Parameter prefix of each table (`"platform":...` or the explicit
    /// model), without braces, id or ρ.
    tables: Vec<String>,
    /// Hot pool: (table index, ρ in micro-units).
    hot: Vec<(usize, u64)>,
    fresh_micro: u64,
    next_id: u64,
}

impl Gen {
    /// The generator for `mix` under `seed`.
    pub fn new(mix: Mix, seed: u64) -> Gen {
        let mut rng = Rng::new(seed, mix as u64 + 1);
        let tables: Vec<String> = match mix {
            Mix::Hot => PLATFORMS
                .iter()
                .flat_map(|p| {
                    PROCESSORS
                        .iter()
                        .map(move |c| format!("\"platform\":\"{p}\",\"processor\":\"{c}\""))
                })
                .collect(),
            Mix::Cold => (0..COLD_TABLES).map(|_| cold_table(&mut rng)).collect(),
        };
        let hot = match mix {
            Mix::Hot => (0..HOT_POOL)
                .map(|i| (i % tables.len(), 1_500_000 + rng.below(6_000_000)))
                .collect(),
            Mix::Cold => Vec::new(),
        };
        let fresh_micro = 2_000_000 + rng.below(1_000_000);
        Gen {
            mix,
            rng,
            tables,
            hot,
            fresh_micro,
            next_id: 1,
        }
    }

    fn push(&mut self, out: &mut Lines, table: usize, rho_micro: u64) {
        if out.ends.is_empty() {
            out.first_id = self.next_id;
        }
        let line = format!(
            "{{\"id\":{},{},\"rho\":{}.{:06}}}\n",
            self.next_id,
            self.tables[table],
            rho_micro / 1_000_000,
            rho_micro % 1_000_000
        );
        self.next_id += 1;
        out.bytes.extend_from_slice(line.as_bytes());
        out.ends.push(out.bytes.len());
    }

    fn fresh(&mut self) -> u64 {
        self.fresh_micro += 1;
        self.fresh_micro
    }

    /// The warm-up pass: every hot-pool plan once (hot), or eight fresh
    /// queries per table (cold). Either way every solver table is built.
    pub fn warmup(&mut self) -> Lines {
        let mut out = Lines::default();
        match self.mix {
            Mix::Hot => {
                for i in 0..self.hot.len() {
                    let (t, rho) = self.hot[i];
                    self.push(&mut out, t, rho);
                }
            }
            Mix::Cold => {
                for i in 0..HOT_POOL {
                    let rho = self.fresh();
                    self.push(&mut out, i % COLD_TABLES, rho);
                }
            }
        }
        out
    }

    /// The next `n` requests of the workload's stream.
    pub fn stream(&mut self, n: usize) -> Lines {
        let mut out = Lines::default();
        for _ in 0..n {
            match self.mix {
                Mix::Hot if self.rng.below(100) < HOT_PERCENT => {
                    let (t, rho) = self.hot[self.rng.below(HOT_POOL as u64) as usize];
                    self.push(&mut out, t, rho);
                }
                _ => {
                    let t = self.rng.below(self.tables.len() as u64) as usize;
                    let rho = self.fresh();
                    self.push(&mut out, t, rho);
                }
            }
        }
        out
    }

    /// Poisson arrival times (ns since phase start) for `n` requests at
    /// `rate` per second.
    pub fn schedule(&mut self, n: usize, rate: f64) -> Vec<u64> {
        let mean_ns = 1e9 / rate;
        let mut t = 0.0f64;
        (0..n)
            .map(|_| {
                t += -mean_ns * (1.0 - self.rng.unit()).ln();
                t as u64
            })
            .collect()
    }
}

/// One custom K = 20 table: Hera/XScale-like constants scaled per table,
/// and a 20-speed ladder between 0.15 and 1.0 with jittered inner steps.
fn cold_table(rng: &mut Rng) -> String {
    let scale = |rng: &mut Rng, base: f64| base * (0.5 + rng.unit());
    let lambda = scale(rng, 3.38e-6);
    let checkpoint = scale(rng, 300.0);
    let verification = scale(rng, 15.4);
    let kappa = scale(rng, 1550.0);
    let pidle = scale(rng, 60.0);
    let speeds: Vec<String> = (0..COLD_SPEEDS)
        .map(|i| {
            let step = 0.85 / (COLD_SPEEDS - 1) as f64;
            let jitter = if i == 0 || i == COLD_SPEEDS - 1 {
                0.0
            } else {
                (rng.unit() - 0.5) * 0.4 * step
            };
            format!("{:.6}", 0.15 + step * i as f64 + jitter)
        })
        .collect();
    format!(
        "\"lambda\":{lambda:.6e},\"checkpoint\":{checkpoint:.4},\"verification\":{verification:.4},\
         \"recovery\":{checkpoint:.4},\"kappa\":{kappa:.4},\"pidle\":{pidle:.4},\
         \"pio\":{:.4},\"speeds\":[{}]",
        kappa * 0.15f64.powi(3),
        speeds.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_schedule() {
        for mix in [Mix::Hot, Mix::Cold] {
            let (mut a, mut b) = (Gen::new(mix, 7), Gen::new(mix, 7));
            assert_eq!(a.warmup().bytes, b.warmup().bytes);
            assert_eq!(a.stream(500).bytes, b.stream(500).bytes);
            assert_eq!(a.schedule(100, 1e4), b.schedule(100, 1e4));
            assert_ne!(
                Gen::new(mix, 8).stream(50).bytes,
                Gen::new(mix, 7).stream(50).bytes
            );
        }
    }

    #[test]
    fn line_sizes_and_ids_match_the_workload_description() {
        let mut hot = Gen::new(Mix::Hot, 1);
        let warm = hot.warmup();
        let s = hot.stream(1000);
        assert_eq!(s.first_id, warm.len() as u64 + 1);
        let avg = s.bytes.len() / s.len();
        assert!((55..=90).contains(&avg), "hot request size {avg} B");
        assert!(s
            .line(3)
            .starts_with(&format!("{{\"id\":{},", s.first_id + 3)));
        let mut cold = Gen::new(Mix::Cold, 1);
        let s = cold.stream(100);
        let avg = s.bytes.len() / s.len();
        assert!((300..=500).contains(&avg), "cold request size {avg} B");
    }

    #[test]
    fn poisson_schedule_has_the_requested_rate() {
        let due = Gen::new(Mix::Hot, 3).schedule(20_000, 10_000.0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let secs = *due.last().unwrap() as f64 / 1e9;
        assert!(
            (secs - 2.0).abs() < 0.1,
            "20k arrivals at 10k/s took {secs} s"
        );
    }
}
