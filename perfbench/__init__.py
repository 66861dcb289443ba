"""Interactive-session benchmark (see README.md)."""
