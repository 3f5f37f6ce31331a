"""Time-to-verdict benchmark for the arcconn verifier (see README.md)."""
