"""Register allocation substrate (linear scan + FIFO spill pool)."""
