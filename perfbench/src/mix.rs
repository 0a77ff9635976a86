//! The seeded task mixes the lake workloads run, with their ground truth.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use unidm::Task;
use unidm_eval::matching::to_serialized;
use unidm_eval::metrics::answers_match;
use unidm_synthdata::scale::TABLE_NAME as SCALE_TABLE;
use unidm_synthdata::{errors, imputation, matching, transformation};
use unidm_tablestore::DataLake;
use unidm_world::World;

/// How a task's answer is judged against the synthdata ground truth,
/// with the same rule the eval crate uses for that task kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Truth {
    /// Imputation: equal after answer normalization.
    Value(String),
    /// Transformation: byte-equal.
    Exact(String),
    /// Error detection and entity resolution: "yes" iff the label holds.
    YesNo(bool),
}

impl Truth {
    /// Whether `answer` matches this ground truth.
    pub fn holds(&self, answer: &str) -> bool {
        match self {
            Truth::Value(truth) => answers_match(answer, truth),
            Truth::Exact(truth) => answer == truth,
            Truth::YesNo(label) => answer.trim().eq_ignore_ascii_case("yes") == *label,
        }
    }
}

/// Items drawn from each dataset of the lake mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixSize {
    /// Restaurant imputation targets.
    pub restaurant: usize,
    /// Buy imputation targets.
    pub buy: usize,
    /// Hospital error-detection cells.
    pub hospital: usize,
    /// Beer entity-resolution pairs (a Magellan set).
    pub beer: usize,
    /// StackOverflow transformation cases.
    pub stackoverflow: usize,
    /// One task in this many is queued a second time, so the batch
    /// runner's dedup planner has duplicates to coalesce.
    pub duplicate_every: usize,
}

/// A task list over a lake, with one ground truth per task.
#[derive(Debug, Clone)]
pub struct Mix {
    /// The tables the tasks refer to.
    pub lake: DataLake,
    /// The tasks, in submission order.
    pub tasks: Vec<Task>,
    /// Ground truth, parallel to `tasks`.
    pub truths: Vec<Truth>,
    /// Each task's position in the unshuffled pool, which lists the
    /// datasets one after another (a duplicate shares its original's).
    pub origins: Vec<usize>,
}

/// The lake workloads' mix: Restaurant and Buy imputation, Hospital error
/// detection, Beer entity resolution and StackOverflow transformation,
/// shuffled with `seed`, with every `duplicate_every`-th task repeated at
/// a seeded later position.
pub fn lake_mix(world: &World, seed: u64, size: &MixSize) -> Mix {
    let mut pool: Vec<(Task, Truth)> = Vec::new();
    let mut lake = DataLake::new();

    for ds in [
        imputation::restaurant(world, seed, size.restaurant),
        imputation::buy(world, seed, size.buy),
    ] {
        for target in &ds.targets {
            pool.push((
                Task::imputation(
                    ds.table.name(),
                    target.row,
                    ds.target_attr.clone(),
                    ds.key_attr.clone(),
                ),
                Truth::Value(target.truth.to_string()),
            ));
        }
        lake.add(ds.table);
    }

    let hospital = errors::hospital(world, seed, 0.05);
    for cell in hospital.cells.iter().take(size.hospital) {
        pool.push((
            Task::error_detection(hospital.table.name(), cell.row, cell.attr.clone()),
            Truth::YesNo(cell.is_error),
        ));
    }
    lake.add(hospital.table);

    let beer = matching::beer(world, seed);
    let demonstrations: Vec<_> = beer
        .train
        .iter()
        .take(40)
        .map(|p| {
            (
                to_serialized(&beer.schema, &p.a),
                to_serialized(&beer.schema, &p.b),
                p.is_match,
            )
        })
        .collect();
    for pair in beer.pairs.iter().take(size.beer) {
        pool.push((
            Task::EntityResolution {
                a: to_serialized(&beer.schema, &pair.a),
                b: to_serialized(&beer.schema, &pair.b),
                pool: demonstrations.clone(),
            },
            Truth::YesNo(pair.is_match),
        ));
    }

    let stackoverflow = transformation::stackoverflow(world, seed, size.stackoverflow);
    for case in stackoverflow.cases.iter().take(size.stackoverflow) {
        pool.push((
            Task::Transformation {
                examples: case.examples.clone(),
                input: case.input.clone(),
            },
            Truth::Exact(case.truth.clone()),
        ));
    }

    let mut pool: Vec<(usize, (Task, Truth))> = pool.into_iter().enumerate().collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d69_7821);
    pool.shuffle(&mut rng);
    // Copies are drawn from the unique pool first, then inserted from the
    // highest position down, so no insertion shifts a later one.
    let unique = pool.len();
    let mut copies: Vec<_> = (0..unique)
        .step_by(size.duplicate_every.max(1))
        .map(|i| (rng.gen_range(i + 1..=unique), pool[i].clone()))
        .collect();
    copies.sort_by_key(|&(at, _)| std::cmp::Reverse(at));
    for (at, copy) in copies {
        pool.insert(at, copy);
    }
    let mut mix = Mix {
        lake,
        tasks: Vec::with_capacity(pool.len()),
        truths: Vec::with_capacity(pool.len()),
        origins: Vec::with_capacity(pool.len()),
    };
    for (origin, (task, truth)) in pool {
        mix.tasks.push(task);
        mix.truths.push(truth);
        mix.origins.push(origin);
    }
    mix
}

/// The imputation task for row `row` of the scale lake: its masked
/// `city`, keyed by `name`.
pub fn scale_task(row: usize) -> Task {
    Task::imputation(SCALE_TABLE, row, "city", "name")
}
