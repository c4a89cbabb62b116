"""The performance ledger harness (see ../README.md)."""
