//! Property test for the keyed-deadline table against a naive model.
//!
//! The model is an unsorted `Vec<(key, deadline, value)>` with linear
//! everything. After every operation the table must agree with it on
//! `next_deadline` and on what each key holds; every expiry must hand
//! out exactly the model's due set, keys strictly ascending (so nothing
//! is due twice within a batch), and what it handed out must be gone.

use proptest::collection::vec;
use proptest::{prop_assert, prop_assert_eq, proptest};
use snipe_util::deadlines::Deadlines;
use snipe_util::time::{SimDuration, SimTime};

type Model = Vec<(u8, SimTime, u32)>;

fn model_remove(model: &mut Model, key: u8) -> Option<u32> {
    let at = model.iter().position(|&(k, _, _)| k == key)?;
    Some(model.swap_remove(at).2)
}

proptest! {
    #[test]
    fn random_operations_agree_with_a_naive_model(
        ops in vec((0u8..6, 0u8..24, 0u64..40_000), 1..400),
    ) {
        let mut table: Deadlines<u8, u32> = Deadlines::new();
        let mut model: Model = Vec::new();
        let mut clock = SimTime::ZERO;
        for (step, (op, key, span)) in ops.into_iter().enumerate() {
            let value = step as u32;
            let span = SimDuration::from_micros(span);
            match op {
                0 | 1 => {
                    // Insert or replace.
                    table.insert(key, clock + span, value);
                    model_remove(&mut model, key);
                    model.push((key, clock + span, value));
                }
                2 => {
                    // Keep the earlier.
                    table.insert_earlier(key, clock + span, value);
                    if !model.iter().any(|&(k, dl, _)| k == key && dl <= clock + span) {
                        model_remove(&mut model, key);
                        model.push((key, clock + span, value));
                    }
                }
                3 => prop_assert_eq!(table.remove(&key), model_remove(&mut model, key)),
                4 => {
                    // Mutate in place; iteration is in key order.
                    let mut seen = Vec::new();
                    for (k, v) in table.iter_mut() {
                        *v ^= 1;
                        seen.push(k);
                    }
                    model.iter_mut().for_each(|e| e.2 ^= 1);
                    prop_assert!(seen.windows(2).all(|w| w[0] < w[1]), "iter_mut order {seen:?}");
                    prop_assert_eq!(seen.len(), model.len());
                }
                _ => {
                    clock += span;
                    let due = table.take_due(clock);
                    prop_assert!(due.windows(2).all(|w| w[0].0 < w[1].0), "due order {due:?}");
                    let mut want: Vec<(u8, u32)> = model
                        .iter()
                        .filter(|&&(_, dl, _)| dl <= clock)
                        .map(|&(k, _, v)| (k, v))
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(due, want);
                    model.retain(|&(_, dl, _)| dl > clock);
                    prop_assert!(table.take_due(clock).is_empty(), "something was due twice");
                }
            }
            prop_assert_eq!(table.next_deadline(), model.iter().map(|&(_, dl, _)| dl).min());
            for k in 0..24u8 {
                let held = model.iter().find(|&&(mk, _, _)| mk == k).map(|&(_, _, v)| v);
                prop_assert_eq!(table.get(&k).copied(), held, "key {}", k);
            }
        }
    }
}
