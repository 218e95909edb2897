/* Sparse matrix-vector product in ELLPACK format through a pure row dot.
   usage: ell SEED ROWS WIDTH REPS */
#include <stdio.h>
#include <stdlib.h>

pure float ell_row_dot(pure float* values, pure int* cols, pure float* x,
                       int row, int rows, int width) {
  float sum = 0.0f;
  for (int k = 0; k < width; k++) {
    sum += values[k * rows + row] * x[cols[k * rows + row]];
  }
  return sum;
}

void ell_spmv(float* values, int* cols, float* x, float* y, int rows,
              int width) {
  for (int i = 0; i < rows; i++) {
    y[i] = ell_row_dot((pure float*)values, (pure int*)cols, (pure float*)x,
                       i, rows, width);
  }
}

int main(int argc, char** argv) {
  if (argc < 5) return 2;
  int seed = atoi(argv[1]);
  int rows = atoi(argv[2]);
  int width = atoi(argv[3]);
  int reps = atoi(argv[4]);
  float* values = (float*)malloc(rows * width * sizeof(float));
  int* cols = (int*)malloc(rows * width * sizeof(int));
  float* x = (float*)malloc(rows * sizeof(float));
  float* y = (float*)malloc(rows * sizeof(float));
  for (int row = 0; row < rows; row++) {
    for (int k = 0; k < width; k++) {
      values[k * rows + row] = (float)((row * 3 + k * 5 + seed) % 9) * 0.5f;
      cols[k * rows + row] = (row * 7 + k * 13 + seed) % rows;
    }
    x[row] = (float)((row * 11 + seed) % 7) * 0.25f;
    y[row] = 0.0f;
  }
  double checksum = 0.0;
  for (int r = 0; r < reps; r++) {
    ell_spmv(values, cols, x, y, rows, width);
    for (int i = 0; i < rows; i++) {
      checksum += (double)y[i] * (i % 5);
      x[i] = y[i] * 0.125f;
    }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}
