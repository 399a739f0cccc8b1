//! The shared percentile helpers on known vectors.

use manic_benchmark::stats::{describe, median, quantile, tail};

#[test]
fn median_and_percentiles_of_known_vectors() {
    assert_eq!(median(&[7.0]), 7.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    let v: Vec<f64> = (1..=101).rev().map(f64::from).collect();
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(quantile(&v, 0.5), 51.0);
    assert_eq!(quantile(&v, 0.99), 100.0);
    assert_eq!(quantile(&v, 1.0), 101.0);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    // Too few samples: the "tail" would sit at or below the median.
    let few: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(tail(&few), None);
    // 1000 samples 1..=1000, unsorted: ten (991..=1000) lie beyond 990 = p99.
    let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let (pct, value) = tail(&v).unwrap();
    assert_eq!(value, 990.0);
    assert!((pct - 99.0).abs() < 1e-9);
    assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    // 21 samples: the eleventh from the top.
    let v: Vec<f64> = (1..=21).map(f64::from).collect();
    assert_eq!(tail(&v).unwrap().1, 11.0);
}

#[test]
fn describe_states_the_sample_count_and_survives_an_empty_sample() {
    assert_eq!(describe(&[], "ms"), "n=0");
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    let line = describe(&v, "ms");
    assert!(line.starts_with("n=1000 min=1.0000 "), "{line}");
    assert!(line.ends_with("p99.0000=990.0000 ms"), "{line}");
}
