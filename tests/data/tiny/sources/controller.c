void step(long param_1, double param_2)
{
  *(double *)(param_1 + 0x10) =
      *(bool *)(param_1 + 0x20) ? *(double *)(param_1 + 0x18) : 0.0;
}
