//! Integration test support crate (tests live in ./tests).
#![forbid(unsafe_code)]
