/* A function-scope temporary privatized per iteration.
   usage: private_tmp SEED N STEPS */
#include <stdio.h>
#include <stdlib.h>

pure float half(float x) {
  return 0.5f * x;
}

void sweep(float** out, float* in, float* w, int n, int m) {
  float t;
  for (int i = 0; i < n; i++) {
    t = half(in[i]);
    for (int j = 0; j < m; j++)
      out[i][j] = t * w[j];
  }
}

int main(int argc, char** argv) {
  if (argc < 4) return 2;
  int seed = atoi(argv[1]);
  int n = atoi(argv[2]);
  int steps = atoi(argv[3]);
  int m = 16;
  float** out = (float**)malloc(n * sizeof(float*));
  float* in = (float*)malloc(n * sizeof(float));
  float* w = (float*)malloc(m * sizeof(float));
  for (int i = 0; i < n; i++) {
    out[i] = (float*)malloc(m * sizeof(float));
    in[i] = (float)((i * 3 + 1 + seed) % 19);
  }
  for (int j = 0; j < m; j++)
    w[j] = (float)((j * 5 + 2 + seed) % 13);
  for (int s = 0; s < steps; s++) sweep(out, in, w, n, m);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < m; j++)
      checksum += (double)out[i][j] * ((i + j) % 3);
  printf("checksum %.6f\n", checksum);
  return 0;
}
