//! The `hyscale` binary rejects bad numeric options with a message that
//! names the flag and exit code 2, instead of panicking or falling back
//! to a default.

use std::process::{Command, Output};

fn hyscale(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hyscale"))
        .args(args)
        .output()
        .expect("run hyscale")
}

#[test]
fn bad_numeric_options_exit_2_naming_the_flag() {
    for (flag, value) in [
        ("--batch", "0"),
        ("--epochs", "abc"),
        ("--accelerators", "-1"),
        ("--scale", "0"),
        ("--epochs", "2.5"),
    ] {
        let out = hyscale(&["train", flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "{flag} {value}: message does not name the flag and value: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}

#[test]
fn missing_numeric_value_exits_2() {
    let out = hyscale(&["train", "--batch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--batch"));
}

#[test]
fn valid_numeric_options_are_accepted() {
    let out = hyscale(&["predict", "--accelerators", "2", "--batch", "256"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("2x"));
}
