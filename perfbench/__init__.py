"""Repo benchmark for the Crossing Guard reproduction (see NOTES.md)."""
