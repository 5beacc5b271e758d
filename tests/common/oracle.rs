//! A naive reference model of one machine queue's Eq. 1 and Eq. 2
//! (arXiv:1905.04456): when the running task frees the machine, the
//! completion-time distribution ahead of each waiting position, and each
//! chance of success. It keeps no cache, memo, arena or incremental
//! chain and calls nothing of `taskprune_prob`: every distribution is a
//! plain `Vec<f64>` indexed by absolute bin from 0, every query redoes
//! its O(n²) convolutions, and Eq. 2 is the direct double sum. A
//! disagreement with `MachineQueue` therefore points at the queue's
//! incremental machinery or its kernels, not at shared code.
//!
//! Include it with `#[path = "common/oracle.rs"] mod oracle;`.

/// One machine queue as plain data.
pub struct OracleQueue<'a> {
    /// Ticks per bin.
    pub bin_width: u64,
    /// Each task type's PET on this machine, dense from bin 0.
    pub pets: &'a [Vec<f64>],
    /// The running task's type and start tick.
    pub running: Option<(usize, u64)>,
    /// Each waiting task's type and deadline tick, head first.
    pub waiting: Vec<(usize, u64)>,
}

impl OracleQueue<'_> {
    /// When the machine frees up for its first waiting task, by absolute
    /// bin. Idle, that is the now-bin. Busy, it is the running task's
    /// PET shifted to its start bin and conditioned on the task still
    /// running in the now-bin. A task that has outlived all of its PET
    /// is taken to complete in the now-bin, as the queue does.
    pub fn base(&self, now: u64) -> Vec<f64> {
        let now_bin = (now / self.bin_width) as usize;
        let point = || {
            let mut d = vec![0.0; now_bin + 1];
            d[now_bin] = 1.0;
            d
        };
        let Some((task_type, start)) = self.running else {
            return point();
        };
        let start_bin = (start / self.bin_width) as usize;
        let pet = &self.pets[task_type];
        let mut d = vec![0.0; start_bin + pet.len()];
        d[start_bin..].copy_from_slice(pet);
        let still_running: f64 = d.iter().skip(now_bin).sum();
        if still_running <= 1e-12 {
            return point();
        }
        for (bin, p) in d.iter_mut().enumerate() {
            *p = if bin < now_bin {
                0.0
            } else {
                *p / still_running
            };
        }
        d
    }

    /// Eq. 1: when every task of `ahead` (task types, in queue order)
    /// is done, after the running task, by absolute bin.
    pub fn ready(&self, now: u64, ahead: &[usize]) -> Vec<f64> {
        ahead
            .iter()
            .fold(self.base(now), |d, &t| convolve(&d, &self.pets[t]))
    }

    /// The last bin a completion may land in to meet `deadline`: the
    /// last bin that ends at or before it.
    pub fn deadline_bin(&self, deadline: u64) -> usize {
        ((deadline / self.bin_width) as usize).saturating_sub(1)
    }

    /// Eq. 2 for a task of `task_type` appended behind every waiting
    /// task.
    pub fn chance_if_appended(
        &self,
        now: u64,
        task_type: usize,
        deadline: u64,
    ) -> f64 {
        let ahead: Vec<usize> = self.waiting.iter().map(|&(t, _)| t).collect();
        eq2(
            &self.ready(now, &ahead),
            &self.pets[task_type],
            self.deadline_bin(deadline),
        )
    }

    /// The Steps 4–6 walk: each waiting task's chance, head first, with
    /// every task `drop(position, chance)` picks taken out of the queue
    /// ahead of the tasks behind it.
    pub fn drop_walk(
        &self,
        now: u64,
        mut drop: impl FnMut(usize, f64) -> bool,
    ) -> Vec<f64> {
        let mut kept = Vec::new();
        let mut chances = Vec::new();
        for (position, &(task_type, deadline)) in
            self.waiting.iter().enumerate()
        {
            let chance = eq2(
                &self.ready(now, &kept),
                &self.pets[task_type],
                self.deadline_bin(deadline),
            );
            chances.push(chance);
            if !drop(position, chance) {
                kept.push(task_type);
            }
        }
        chances
    }
}

/// The distribution of the sum of two independent bin counts.
fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &pa) in a.iter().enumerate() {
        for (j, &pb) in b.iter().enumerate() {
            out[i + j] += pa * pb;
        }
    }
    out
}

/// Eq. 2 as the direct double sum: P(ready + pet ≤ deadline_bin) =
/// Σₓ Σₜ pet(x) · ready(t) over t + x ≤ deadline_bin.
fn eq2(ready: &[f64], pet: &[f64], deadline_bin: usize) -> f64 {
    let mut total = 0.0;
    for (x, &px) in pet.iter().enumerate() {
        for (t, &pt) in ready.iter().enumerate() {
            if t + x <= deadline_bin {
                total += px * pt;
            }
        }
    }
    total
}
