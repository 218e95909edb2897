/* A disjunctive guard with an else branch: pairwise-disjoint statement
   domains, so the loop proves parallel.
   usage: disjunctive_guard SEED N STEPS */
#include <stdio.h>
#include <stdlib.h>

pure float twice(float x) {
  return 2.0f * x;
}

void mask(float* out, float* in, int n, int m) {
  for (int i = 0; i < n; i++) {
    if (i < m || i > m + 4)
      out[i] = twice(in[i]);
    else
      out[i] = 0.0f;
  }
}

int main(int argc, char** argv) {
  if (argc < 4) return 2;
  int seed = atoi(argv[1]);
  int n = atoi(argv[2]);
  int steps = atoi(argv[3]);
  float* out = (float*)malloc(n * sizeof(float));
  float* in = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++)
    in[i] = (float)((i * 13 + 7 + seed) % 29);
  double checksum = 0.0;
  for (int s = 0; s < steps; s++) {
    mask(out, in, n, (n / 2 + s) % n);
    checksum += (double)out[s % n];
  }
  for (int i = 0; i < n; i++)
    checksum += (double)out[i] * (i % 7 + 1);
  printf("checksum %.6f\n", checksum);
  return 0;
}
