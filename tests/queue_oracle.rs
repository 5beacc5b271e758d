//! `MachineQueue`'s Eq. 1 and Eq. 2 against a naive model of one queue
//! (`tests/common/oracle.rs`): random single queues, idle or busy, with
//! up to six waiting tasks, PET supports of a few bins (interior zero
//! bins included) and deadlines inside the estimator horizon. The
//! chance of an appended task, and every chance the Steps 4–6 walk
//! reports while it drops a random subset of the queue, must agree with
//! the model within 1e-9.

#[path = "common/oracle.rs"]
mod oracle;

use oracle::OracleQueue;
use proptest::prelude::*;
use taskprune_model::{
    BinSpec, Cluster, MachineId, PetMatrix, SimTime, Task, TaskTypeId,
};
use taskprune_prob::Pmf;
use taskprune_sim::queue::MachineQueue;

const BIN: u64 = 100;
/// Far past every deadline below, so no chain truncation can move a
/// chance.
const HORIZON_BINS: u64 = 256;
const TOLERANCE: f64 = 1e-9;

/// A PET as a plain vector dense from bin 0: `lead` zero bins, then the
/// normalised `weights` (a 0 leaves an interior zero bin). All-zero
/// weights give a point mass at the first weighted bin.
fn plain_pet(lead: usize, weights: &[u32]) -> Vec<f64> {
    let total: u32 = weights.iter().sum();
    let mut pet = vec![0.0; lead];
    if total == 0 {
        pet.push(1.0);
    } else {
        pet.extend(weights.iter().map(|&w| f64::from(w) / f64::from(total)));
    }
    pet
}

fn to_pmf(pet: &[f64]) -> Pmf {
    let points: Vec<(u64, f64)> = pet
        .iter()
        .enumerate()
        .map(|(bin, &p)| (bin as u64, p))
        .collect();
    Pmf::from_points(&points).expect("a PET has positive mass")
}

fn task(id: u64, task_type: usize, deadline: u64) -> Task {
    Task::new(
        id,
        TaskTypeId(task_type as u16),
        SimTime(0),
        SimTime(deadline),
    )
}

proptest! {
    #[test]
    fn queue_chances_match_the_oracle(
        shapes in prop::collection::vec(
            (0usize..3, prop::collection::vec(0u32..4, 2..=5)),
            3,
        ),
        running in (any::<bool>(), 0usize..3, 0u64..2_000),
        elapsed in 0u64..400,
        waiting in prop::collection::vec((0usize..3, 0u64..1_500), 0..=6),
        probe in (0usize..3, 0u64..2_500),
        drop_mask in any::<u8>(),
    ) {
        let pets: Vec<Vec<f64>> =
            shapes.iter().map(|(lead, w)| plain_pet(*lead, w)).collect();
        let matrix = PetMatrix::new(
            BinSpec::new(BIN),
            1,
            pets.len(),
            pets.iter().map(|p| to_pmf(p)).collect(),
        );
        let spec = matrix.bin_spec();
        let (busy, running_type, start) = running;
        let now = start + elapsed;
        let machine = Cluster::one_per_type(1).machine(MachineId(0));
        let mut queue = MachineQueue::new(machine, 8, HORIZON_BINS);
        let model = OracleQueue {
            bin_width: BIN,
            pets: &pets,
            running: busy.then_some((running_type, start)),
            waiting: waiting
                .iter()
                .map(|&(t, slack)| (t, now + slack))
                .collect(),
        };
        if busy {
            queue.set_running(task(99, running_type, 0), SimTime(start));
        }
        for (i, &(t, deadline)) in model.waiting.iter().enumerate() {
            queue.admit(task(i as u64, t, deadline));
        }

        let (probe_type, slack) = probe;
        let appended = task(98, probe_type, now + slack);
        let got =
            queue.chance_if_appended(spec, &matrix, SimTime(now), &appended);
        let want = model.chance_if_appended(now, probe_type, now + slack);
        prop_assert!(
            (got - want).abs() <= TOLERANCE,
            "appended: queue {} vs oracle {} (now {}, queue {:?}, \
             running {:?}, pets {:?})",
            got, want, now, model.waiting, model.running, pets
        );

        let dropped = |position: usize| drop_mask >> position & 1 == 1;
        let mut walked = Vec::new();
        queue.plan_drops(spec, &matrix, SimTime(now), |t, chance| {
            walked.push(chance);
            dropped(t.id.0 as usize)
        });
        let want = model.drop_walk(now, |position, _| dropped(position));
        prop_assert_eq!(walked.len(), want.len());
        for (position, (got, want)) in walked.iter().zip(&want).enumerate() {
            prop_assert!(
                (got - want).abs() <= TOLERANCE,
                "walk position {}: queue {} vs oracle {} (now {}, mask \
                 {:#010b}, queue {:?}, running {:?}, pets {:?})",
                position, got, want, now, drop_mask, model.waiting,
                model.running, pets
            );
        }
    }
}
