"""Machine models: processors (Section 4.4) and memory systems (4.5)."""
