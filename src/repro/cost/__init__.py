"""Cost models for VMPlant bidding (Sections 3.4 and 4.1)."""
