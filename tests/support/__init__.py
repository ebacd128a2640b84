"""Helpers only the tests use: checks and compositions of the scanner's own
functions that the scanner itself does not need."""
