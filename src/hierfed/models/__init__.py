"""Student models: knowledge tracing (LSTM) and outcome prediction (GRU)."""
