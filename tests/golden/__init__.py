"""Recorded outputs the suite compares against (see each module)."""
