/* Fission: a prefix scan (serial) beside an independent map (parallel).
   usage: fission_split SEED N STEPS */
#include <stdio.h>
#include <stdlib.h>

pure float twice(float x) {
  return 2.0f * x;
}

void split(float* acc, float* out, float* in, int n) {
  for (int i = 0; i < n; i++) {
    if (i > 0)
      acc[i] = acc[i - 1] + in[i];
    out[i] = twice(in[i]);
  }
}

int main(int argc, char** argv) {
  if (argc < 4) return 2;
  int seed = atoi(argv[1]);
  int n = atoi(argv[2]);
  int steps = atoi(argv[3]);
  float* acc = (float*)malloc(n * sizeof(float));
  float* out = (float*)malloc(n * sizeof(float));
  float* in = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) {
    in[i] = (float)((i * 7 + 3 + seed) % 23);
    acc[i] = 0.0f;
  }
  acc[0] = in[0];
  for (int s = 0; s < steps; s++) split(acc, out, in, n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    checksum += (double)acc[i] * (i % 5) + (double)out[i];
  printf("checksum %.6f\n", checksum);
  return 0;
}
