//! Seeded inputs for the workloads.
//!
//! Regions, and therefore all compile work, are a fixed function of the
//! Table II row and the path index. The seed changes only what the
//! program receives at run time: every `UnknownPattern::Scatter` in a
//! binding is re-seeded (which addresses the unknown pointers visit), and
//! the daemon's submission order is permuted. Sweep jobs keep Table II
//! order: with two workers the order decides which job runs last, and a
//! permuted order made pass times depend on the seed's luck rather than
//! on the program.

use nachos::sweep::SweepJob;
use nachos_ir::{Binding, UnknownPattern};
use nachos_workloads::{all, generate_path};

/// SplitMix64: a small deterministic generator for seeds and shuffles.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream depends only on `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        nachos::sweep::journal::splitmix64(self.0)
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Re-seeds every scattered unknown pointer of `binding` from `seed`,
/// keeping its address window. Fixed and strided pointers are untouched.
pub fn reseed(binding: &mut Binding, seed: u64) {
    for (k, p) in binding.unknowns.iter_mut().enumerate() {
        if let UnknownPattern::Scatter { seed: s, .. } = p {
            *s = nachos::sweep::journal::splitmix64(*s ^ seed ^ (k as u64).rotate_left(32));
        }
    }
}

/// Generates the sweep jobs for the first `paths` paths of every Table II
/// row (1 = the hottest paths, 5 = the paper's 135 regions) in Table II
/// order, re-seeded. Multi-path jobs are named `<row>/p<path>`.
#[must_use]
pub fn sweep_jobs(paths: u32, seed: u64) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for spec in all() {
        for path in 0..paths {
            let mut w = generate_path(&spec, path);
            reseed(&mut w.binding, seed);
            let name = if paths == 1 {
                spec.name.to_owned()
            } else {
                format!("{}/p{path}", spec.name)
            };
            jobs.push(SweepJob::new(name, w.region, w.binding));
        }
    }
    jobs
}

/// The Table II row names in the seeded order of one submission cycle.
#[must_use]
pub fn submission_order(rng: &mut Rng) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = all().iter().map(|s| s.name).collect();
    rng.shuffle(&mut names);
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_changes_bindings_but_not_regions() {
        let a = sweep_jobs(1, 1);
        let b = sweep_jobs(1, 2);
        let mut bindings_differ = false;
        for (job, other) in a.iter().zip(&b) {
            assert_eq!(job.name, other.name, "sweep jobs keep Table II order");
            assert_eq!(
                format!("{:?}", job.region),
                format!("{:?}", other.region),
                "{}: the region must not depend on the seed",
                job.name
            );
            assert_eq!(job.binding.base_addrs, other.binding.base_addrs);
            assert_eq!(job.binding.params, other.binding.params);
            bindings_differ |= job.binding.unknowns != other.binding.unknowns;
        }
        assert!(bindings_differ, "some scattered pointer must be re-seeded");
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a = sweep_jobs(5, 9);
        let b = sweep_jobs(5, 9);
        assert_eq!(a.len(), 135);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.binding, y.binding);
        }
    }

    #[test]
    fn reseeding_keeps_address_windows() {
        let mut b = Binding {
            unknowns: vec![
                UnknownPattern::Fixed(0x100),
                UnknownPattern::Scatter {
                    seed: 5,
                    lo: 0x1000,
                    hi: 0x2000,
                    align: 8,
                },
            ],
            ..Binding::default()
        };
        reseed(&mut b, 77);
        assert_eq!(b.unknowns[0], UnknownPattern::Fixed(0x100));
        let UnknownPattern::Scatter {
            seed,
            lo,
            hi,
            align,
        } = b.unknowns[1]
        else {
            panic!("pattern kind must be kept");
        };
        assert_ne!(seed, 5);
        assert_eq!((lo, hi, align), (0x1000, 0x2000, 8));
        for inv in 0..64 {
            let a = b.unknowns[1].resolve(inv);
            assert!((0x1000..0x2000).contains(&a) && a.is_multiple_of(8));
        }
    }

    #[test]
    fn submission_order_is_a_permutation() {
        let mut rng = Rng::new(3);
        let mut order = submission_order(&mut rng);
        assert_eq!(order.len(), 27);
        order.sort_unstable();
        order.dedup();
        assert_eq!(order.len(), 27);
    }
}
